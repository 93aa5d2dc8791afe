type entry = { name : string; descr : string; scenario : Scenario.t }

(* Headline scenarios are hand-built (not generated): the AF assurance
   and QTP_light setups the paper's tables rest on, with durations
   short enough to keep committed traces small. *)

let af_headline =
  {
    name = "af_headline";
    descr = "two QTP_AF flows over an AF dumbbell (80% committed)";
    scenario =
      {
        Scenario.seed = 9001;
        shape = Scenario.Dumbbell 2;
        rate_mbps = 10.0;
        delay_ms = 30.0;
        buffer_pkts = 85;
        red = true;
        loss = Scenario.Clean;
        mangle = Netsim.Mangler.none;
        mangle_reverse = false;
        profile = Scenario.P_af 0.8;
        workload = Scenario.Greedy;
        background = true;
        duration = 2.0;
        handover = None;
        trunk = None;
      };
  }

let light_headline =
  {
    name = "light_headline";
    descr = "QTP_light (full reliability) over a 1% Bernoulli-lossy path";
    scenario =
      {
        Scenario.seed = 9002;
        shape = Scenario.Dumbbell 1;
        rate_mbps = 6.0;
        delay_ms = 40.0;
        buffer_pkts = 60;
        red = false;
        loss = Scenario.Bernoulli 0.01;
        mangle = Netsim.Mangler.none;
        mangle_reverse = false;
        profile = Scenario.P_light Qtp.Capabilities.R_full;
        workload = Scenario.Greedy;
        background = false;
        duration = 2.0;
        handover = None;
        trunk = None;
      };
  }

(* A slice of the fuzz smoke corpus, durations clamped so the committed
   traces stay a few hundred kilobytes each. *)
let fuzz_seed seed =
  let sc = Scenario.generate ~seed in
  {
    name = Printf.sprintf "fuzz_%d" seed;
    descr = Scenario.summary sc;
    scenario = { sc with Scenario.duration = Float.min sc.Scenario.duration 1.5 };
  }

(* Long-fat-network scenarios for the run-length SACK/TFRC fast path:
   250..400 ms RTTs put thousands of packets in flight, so the
   scoreboard, receiver tracker and loss history all carry wide,
   fragmented windows — exactly the state the interval representations
   compress.  Rates are kept moderate so the committed traces stay a
   few hundred kilobytes. *)

let lfn_af =
  {
    name = "lfn_af";
    descr = "two QTP_AF flows over a 300 ms-RTT long-fat AF dumbbell";
    scenario =
      {
        Scenario.seed = 9003;
        shape = Scenario.Dumbbell 2;
        rate_mbps = 12.0;
        delay_ms = 150.0;
        buffer_pkts = 600;
        red = true;
        loss = Scenario.Clean;
        mangle = Netsim.Mangler.none;
        mangle_reverse = false;
        profile = Scenario.P_af 0.8;
        workload = Scenario.Greedy;
        background = true;
        duration = 1.8;
        handover = None;
        trunk = None;
      };
  }

let lfn_light =
  {
    name = "lfn_light";
    descr =
      "QTP_light (full reliability) over a 400 ms-RTT lossy long-fat path";
    scenario =
      {
        Scenario.seed = 9004;
        shape = Scenario.Dumbbell 1;
        rate_mbps = 8.0;
        delay_ms = 200.0;
        buffer_pkts = 800;
        red = false;
        loss = Scenario.Bernoulli 0.005;
        mangle = Netsim.Mangler.none;
        mangle_reverse = false;
        profile = Scenario.P_light Qtp.Capabilities.R_full;
        workload = Scenario.Greedy;
        background = false;
        duration = 8.0;
        handover = None;
        trunk = None;
      };
  }

(* Mobility scenarios: a mid-connection WiFi -> cellular -> satellite
   migration sequence on a fixed schedule, one per feedback plane.  The
   first migration drains in flight, the second cuts it, so the traces
   pin both the drain and the D_cut drop paths plus the Handover event
   codec. *)

let handover_paths =
  [
    { Scenario.cls = Scenario.Wifi; ho_rate_mbps = 20.0; ho_delay_ms = 8.0;
      ho_loss = 0.0 };
    { Scenario.cls = Scenario.Cellular; ho_rate_mbps = 1.5; ho_delay_ms = 60.0;
      ho_loss = 0.0 };
    { Scenario.cls = Scenario.Satellite; ho_rate_mbps = 2.0;
      ho_delay_ms = 270.0; ho_loss = 0.0 };
  ]

let handover_scenario ~seed ~profile ~policy =
  {
    Scenario.seed;
    shape = Scenario.Dumbbell 1;
    rate_mbps = 20.0;
    delay_ms = 8.0;
    buffer_pkts = 60;
    red = false;
    loss = Scenario.Clean;
    mangle = Netsim.Mangler.none;
    mangle_reverse = false;
    profile;
    workload = Scenario.Greedy;
    background = false;
    duration = 3.0;
    handover =
      Some
        {
          Scenario.ho_links = handover_paths;
          ho_schedule = [ (1.0, 1, `Drain); (2.0, 2, `Cut) ];
          ho_policy = policy;
        };
    trunk = None;
  }

let handover_af =
  {
    name = "handover_af";
    descr = "QTP_AF through a WiFi -> cellular -> satellite handover (informed)";
    (* frac is relative to path 0 (20 Mb/s): 0.025 commits g = 0.5 Mb/s,
       below every path in the set, so the floor is honourable after
       both downgrades — a floor above a later path's capacity is a
       legitimate band scenario but a poor conformance exemplar (it
       storms and evicts the handover events from the ring window). *)
    scenario = handover_scenario ~seed:9005 ~profile:(Scenario.P_af 0.025)
        ~policy:`Informed;
  }

let handover_light =
  {
    name = "handover_light";
    descr =
      "QTP_light (full reliability) through the same handovers (reset policy)";
    scenario =
      handover_scenario ~seed:9006
        ~profile:(Scenario.P_light Qtp.Capabilities.R_full) ~policy:`Reset;
  }

(* Trunking scenarios: one gTFRC connection fronting dozens of user
   micro-flows, one per scheduling discipline.  [trunk_af] pins the
   DRR packing order and per-user framing under an AF floor; [trunk_light]
   pins the FIFO path with sender-side loss reconstruction over a lossy
   link, so retransmitted trunk segments demultiplex too. *)

let trunk_af =
  {
    name = "trunk_af";
    descr = "40-user DRR trunk over one QTP_AF connection (80% committed)";
    scenario =
      {
        Scenario.seed = 9007;
        shape = Scenario.Dumbbell 1;
        rate_mbps = 10.0;
        delay_ms = 30.0;
        buffer_pkts = 85;
        red = false;
        loss = Scenario.Clean;
        mangle = Netsim.Mangler.none;
        mangle_reverse = false;
        profile = Scenario.P_af 0.8;
        workload = Scenario.Greedy;
        background = false;
        duration = 2.0;
        handover = None;
        trunk =
          Some
            {
              Scenario.tr_users = 40;
              tr_sched = `Drr;
              tr_quantum = 1500;
              tr_frame_cap = 512;
            };
      };
  }

let trunk_light =
  {
    name = "trunk_light";
    descr =
      "25-user FIFO trunk over QTP_light (full reliability), 1% lossy path";
    scenario =
      {
        Scenario.seed = 9008;
        shape = Scenario.Dumbbell 1;
        rate_mbps = 6.0;
        delay_ms = 40.0;
        buffer_pkts = 60;
        red = false;
        loss = Scenario.Bernoulli 0.01;
        mangle = Netsim.Mangler.none;
        mangle_reverse = false;
        profile = Scenario.P_light Qtp.Capabilities.R_full;
        workload = Scenario.Greedy;
        background = false;
        duration = 2.0;
        handover = None;
        trunk =
          Some
            {
              Scenario.tr_users = 25;
              tr_sched = `Fifo;
              tr_quantum = 1500;
              tr_frame_cap = 256;
            };
      };
  }

let corpus =
  [ af_headline; light_headline ]
  @ List.map fuzz_seed [ 101; 102; 103; 104; 105; 106 ]
  @ [ lfn_af; lfn_light; handover_af; handover_light; trunk_af; trunk_light ]

let find name = List.find_opt (fun e -> e.name = name) corpus

let capture entry =
  Trace.Recorder.with_recorder (fun () -> Exec.run entry.scenario)
