module Caps = Qtp.Capabilities

type failure =
  | Invariant of Analysis.Invariants.violation
  | Oracle of { flow : int; what : string }
  | Crash of string

type flow_stats = {
  flow : int;
  final : string;
  data_sent : int;
  retx : int;
  delivered : int;
  skipped : int;
  abandoned : int;
}

type trunk_stats = {
  tk_users : int;
  tk_admitted : int;
  tk_shipped : int;
  tk_delivered : int;
  tk_segments : int;
  tk_frames : int;
  tk_rejected : int;
  tk_junk : int;
  tk_jain : float;
}

type report = {
  scenario : Scenario.t;
  failures : failure list;
  flows : flow_stats list;
  mangled : Netsim.Mangler.stats;  (** summed over every mangled link *)
  trunk : trunk_stats option;
  handshake_timeouts : int;
  checker_events : int;
}

let passed r = r.failures = []

(* The close driver polls every [max (2 * srtt) 0.05] for at most 200
   ticks, and generation bounds keep the rtt of any scenario under a
   few seconds — so this much virtual time after [close] always
   suffices for every connection to reach Closed. *)
let drain_slack = 1500.0

let state_str : Qtp.Connection.state -> string = function
  | Qtp.Connection.Negotiating -> "negotiating"
  | Qtp.Connection.Established _ -> "established"
  | Qtp.Connection.Closing -> "closing"
  | Qtp.Connection.Closed -> "closed"
  | Qtp.Connection.Failed r -> "failed: " ^ r

let red_params ~buffer_pkts ~rate_bps =
  {
    Netsim.Red.min_th = Float.max 4.0 (0.25 *. float_of_int buffer_pkts);
    max_th = Float.max 8.0 (0.7 *. float_of_int buffer_pkts);
    max_p = 0.1;
    w_q = 0.002;
    gentle = true;
    idle_pkt_time = 1500.0 *. 8.0 /. rate_bps;
  }

let build_topology ~sim ~rng (sc : Scenario.t) ~n_total =
  let rate = sc.Scenario.rate_mbps *. 1e6 in
  let delay = sc.Scenario.delay_ms /. 1000.0 in
  let qdisc () =
    if sc.Scenario.red then
      Netsim.Qdisc.red ~capacity_pkts:sc.Scenario.buffer_pkts
        ~params:(red_params ~buffer_pkts:sc.Scenario.buffer_pkts ~rate_bps:rate)
        ~rng:(Engine.Rng.split rng) ()
    else Netsim.Qdisc.droptail ~capacity_pkts:sc.Scenario.buffer_pkts
  in
  let loss () =
    match sc.Scenario.loss with
    | Scenario.Clean -> Netsim.Loss_model.none
    | Scenario.Bernoulli p ->
        Netsim.Loss_model.bernoulli ~p ~rng:(Engine.Rng.split rng)
    | Scenario.Gilbert { loss; burstiness } ->
        Netsim.Loss_model.gilbert ~loss ~burstiness ~rng:(Engine.Rng.split rng)
  in
  let mangle () =
    if Netsim.Mangler.is_active sc.Scenario.mangle then
      Some
        (Netsim.Mangler.create ~sim ~rng:(Engine.Rng.split rng)
           sc.Scenario.mangle)
    else None
  in
  let forward =
    Netsim.Topology.spec ~rate_bps:rate ~delay ~qdisc ~loss ~mangle ()
  in
  let reverse =
    Netsim.Topology.spec ~rate_bps:rate ~delay
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:2000)
      ~mangle:(if sc.Scenario.mangle_reverse then mangle else fun () -> None)
      ()
  in
  (* Extra hops of a chain / parking lot: clean, amply buffered, same
     rate — the first hop stays the bottleneck and the fault site. *)
  let plain_hop =
    Netsim.Topology.spec ~rate_bps:(1.25 *. rate) ~delay:0.002
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:2000)
      ()
  in
  match sc.Scenario.shape with
  | Scenario.Dumbbell _ ->
      let committed_rates =
        match sc.Scenario.profile with
        | Scenario.P_af frac ->
            let n_vtp = Scenario.flows sc in
            Some
              (Array.init n_total (fun i ->
                   if i < n_vtp then frac *. rate /. float_of_int n_vtp
                   else 0.0))
        | _ -> None
      in
      Netsim.Topology.dumbbell ~sim ~n_flows:n_total ~bottleneck:forward
        ~reverse ?committed_rates ()
  | Scenario.Chain h ->
      let hops = forward :: List.init (h - 1) (fun _ -> plain_hop) in
      Netsim.Topology.parking_lot ~sim ~hops ~paths:(Array.make n_total (0, h))
        ~reverse ()
  | Scenario.Parking_lot h ->
      let hops = forward :: List.init (h - 1) (fun _ -> plain_hop) in
      (* Flow 0 crosses every hop; flow 1 is a single-hop cross flow on
         the last hop; an optional background flow shares the long
         path. *)
      let vtp_paths = [ (0, h); (h - 1, h) ] in
      let paths =
        Array.of_list
          (if n_total > 2 then vtp_paths @ [ (0, h) ] else vtp_paths)
      in
      Netsim.Topology.parking_lot ~sim ~hops ~paths ~reverse ()

(* Mobility: one duplex link pair per candidate path, each with its own
   declared rate / delay and optional Bernoulli loss; the scenario's
   mangler profile (if any) applies to every forward path so handovers
   can race reordered and duplicated frames.  Reverse paths take the
   per-path default (mirroring rate and delay), so feedback latency
   jumps with each migration exactly as on a real access change. *)
let build_mobile ~sim ~rng (sc : Scenario.t) (h : Scenario.handover) =
  let mangle () =
    if Netsim.Mangler.is_active sc.Scenario.mangle then
      Some
        (Netsim.Mangler.create ~sim ~rng:(Engine.Rng.split rng)
           sc.Scenario.mangle)
    else None
  in
  let spec_of (l : Scenario.ho_link) =
    let loss () =
      if l.Scenario.ho_loss > 0.0 then
        Netsim.Loss_model.bernoulli ~p:l.Scenario.ho_loss
          ~rng:(Engine.Rng.split rng)
      else Netsim.Loss_model.none
    in
    Netsim.Topology.spec
      ~rate_bps:(l.Scenario.ho_rate_mbps *. 1e6)
      ~delay:(l.Scenario.ho_delay_ms /. 1000.0)
      ~qdisc:(fun () ->
        Netsim.Qdisc.droptail ~capacity_pkts:sc.Scenario.buffer_pkts)
      ~loss ~mangle ()
  in
  Netsim.Topology.mobile ~sim
    ~paths:(List.map spec_of h.Scenario.ho_links)
    ()

let offers (sc : Scenario.t) ~fair_bps =
  match sc.Scenario.profile with
  | Scenario.P_af frac ->
      (Qtp.Profile.qtp_af ~g_bps:(frac *. fair_bps) (), Qtp.Profile.anything ())
  | Scenario.P_light m ->
      (Qtp.Profile.qtp_light ~reliability:[ m ] (), Qtp.Profile.anything ())
  | Scenario.P_tfrc -> (Qtp.Profile.qtp_tfrc (), Qtp.Profile.anything ())
  | Scenario.P_full -> (Qtp.Profile.qtp_full (), Qtp.Profile.anything ())

(* Trunk workloads and DRR weights come from a stream derived purely
   from the scenario seed: heavy-tailed sizes spanning three decades
   (most users are mice, a few are elephants), and a minority of users
   with elevated weights so the differential's weighted bound is
   exercised end to end. *)
let trunk_exec_key = 0x54524b (* "TRK" *)

let build_trunk (sc : Scenario.t) (tr : Scenario.trunk) =
  let wrng = Engine.Rng.create ~seed:(sc.Scenario.seed lxor trunk_exec_key) in
  let weights =
    Array.init tr.Scenario.tr_users (fun _ ->
        if Engine.Rng.chance wrng 0.2 then 1 + Engine.Rng.int wrng 7 else 1)
  in
  let workloads =
    Array.init tr.Scenario.tr_users (fun _ ->
        int_of_float
          (Engine.Dist.log_uniform_range wrng ~lo:64.0 ~hi:65536.0))
  in
  let discipline =
    match tr.Scenario.tr_sched with
    | `Fifo -> Trunk.Sched.Fifo
    | `Drr -> Trunk.Sched.Drr
  in
  let cfg =
    Trunk.Mux.config ~discipline ~quantum:tr.Scenario.tr_quantum
      ~frame_cap:tr.Scenario.tr_frame_cap ~users:tr.Scenario.tr_users ()
  in
  (Trunk.Mux.create ~weights cfg, workloads)

let source ~sim ~rng (sc : Scenario.t) ~fair_bps =
  match sc.Scenario.workload with
  | Scenario.Greedy -> Qtp.Source.greedy ()
  | Scenario.Cbr frac ->
      Qtp.Source.cbr ~sim ~rate_bps:(frac *. fair_bps) ~packet_size:1500 ()
  | Scenario.On_off frac ->
      Qtp.Source.on_off ~sim ~rng:(Engine.Rng.split rng) ~mean_on:1.0
        ~mean_off:0.5 ~rate_bps:(frac *. fair_bps) ~packet_size:1500 ()

let run (sc : Scenario.t) : report =
  let sim = Engine.Sim.create ~seed:sc.Scenario.seed () in
  let rng = Engine.Sim.split_rng sim in
  let n_vtp =
    match sc.Scenario.handover with
    | Some _ -> 1 (* the mobile topology is single-flow by construction *)
    | None -> Scenario.flows sc
  in
  let background = sc.Scenario.background && sc.Scenario.handover = None in
  let n_total = n_vtp + if background then 1 else 0 in
  let mobile =
    match sc.Scenario.handover with
    | Some h -> Some (build_mobile ~sim ~rng sc h)
    | None -> None
  in
  let topo =
    match mobile with
    | Some m -> Netsim.Topology.mobile_net m
    | None -> build_topology ~sim ~rng sc ~n_total
  in
  let rate = sc.Scenario.rate_mbps *. 1e6 in
  let fair_bps = rate /. float_of_int n_vtp in
  let checker = Analysis.Invariants.create () in
  Analysis.Observe.install_rate_hook checker;
  Fun.protect ~finally:Analysis.Observe.clear_rate_hook @@ fun () ->
  Analysis.Observe.instrument checker topo;
  let initiator, responder = offers sc ~fair_bps in
  let initial_rtt =
    Float.max 0.05 (4.0 *. sc.Scenario.delay_ms /. 1000.0)
  in
  let handover_policy =
    match sc.Scenario.handover with
    | Some h -> Some h.Scenario.ho_policy
    | None -> None
  in
  let trunk_mux =
    match sc.Scenario.trunk with
    | Some tr -> Some (build_trunk sc tr)
    | None -> None
  in
  let conns =
    Array.init n_vtp (fun i ->
        Qtp.Connection.create_negotiated ~sim
          ~endpoint:(Netsim.Topology.endpoint topo i)
          ~source:
            (match trunk_mux with
            | Some (mux, _) when i = 0 -> Trunk.Mux.source mux
            | _ -> source ~sim ~rng sc ~fair_bps)
          ~start_at:(0.01 *. float_of_int i)
          ~initial_rtt ?handover:handover_policy ~initiator ~responder ())
  in
  (match trunk_mux with
  | Some (mux, workloads) ->
      Trunk.Mux.attach mux ~conn:conns.(0) ~seg_payload:Qtp.Vtp_wire.payload;
      ignore
        (Trunk.Mux.feed mux ~sim ~workloads ~stop_at:sc.Scenario.duration ())
  | None -> ());
  (match (mobile, sc.Scenario.handover) with
  | Some m, Some h ->
      let conn = conns.(0) in
      Netsim.Topology.on_migrate m (fun idx ->
          let fwd = Netsim.Topology.path_fwd m idx in
          let rev = Netsim.Topology.path_rev m idx in
          Qtp.Connection.notify_migration conn
            ~link:
              (Tfrc.Handover.link_of
                 ~bandwidth_bps:(Netsim.Link.rate_bps fwd)
                 ~rtt:(Netsim.Link.delay fwd +. Netsim.Link.delay rev)));
      Netsim.Topology.apply_schedule m h.Scenario.ho_schedule
  | _ -> ());
  if background then begin
    let ep = Netsim.Topology.endpoint topo n_vtp in
    ep.Netsim.Topology.on_receiver_rx (fun _ -> ());
    ignore
      (Workload.Background.poisson ~sim ~sink:ep.Netsim.Topology.to_receiver
         ~flow_id:n_vtp ~rng:(Engine.Rng.split rng)
         ~rate_bps:(0.3 *. rate) ~packet_size:1000
         ~stop_at:sc.Scenario.duration ())
  end;
  let agreed_at_close = Array.make n_vtp None in
  (* Any exception escaping the simulation is itself a finding — fuzzing
     must report crashes, not die on them. *)
  let crash =
    match
      Engine.Sim.run ~until:sc.Scenario.duration sim;
      Array.iteri
        (fun i c ->
          match Qtp.Connection.state c with
          | Qtp.Connection.Established a -> agreed_at_close.(i) <- Some a
          | _ -> ())
        conns;
      Array.iter Qtp.Connection.close conns;
      Engine.Sim.run ~until:(sc.Scenario.duration +. drain_slack) sim
    with
    | () -> None
    | exception exn -> Some (Printexc.to_string exn)
  in
  (* Oracles. *)
  let oracle_failures = ref [] in
  let fail flow what = oracle_failures := Oracle { flow; what } :: !oracle_failures in
  let unmangled_path =
    (not (Netsim.Mangler.is_active sc.Scenario.mangle))
    && sc.Scenario.handover = None
  in
  let handshake_timeouts = ref 0 in
  let flows =
    Array.to_list
      (Array.mapi
         (fun i c ->
           let st = Qtp.Connection.state c in
           (match st with
           | _ when crash <> None ->
               (* A crashed run never reached the drain horizon; the
                  per-flow oracles would only echo that. *)
               ()
           | Qtp.Connection.Closed -> ()
           | Qtp.Connection.Failed "handshake timeout" ->
               incr handshake_timeouts;
               if not (Scenario.faulty sc) then
                 fail i "handshake timeout on a fault-free path"
           | Qtp.Connection.Failed r -> fail i ("connection failed: " ^ r)
           | Qtp.Connection.Negotiating | Qtp.Connection.Established _
           | Qtp.Connection.Closing ->
               fail i
                 ("no-hang: connection still " ^ state_str st
                ^ " at the drain horizon"));
           (match agreed_at_close.(i) with
           | _ when crash <> None -> ()
           | None -> ()
           | Some a ->
               if a.Caps.mode <> Scenario.expected_mode sc then
                 fail i
                   (Format.asprintf
                      "negotiation: agreed mode %a, offers dictate %a"
                      Caps.pp_mode a.Caps.mode Caps.pp_mode
                      (Scenario.expected_mode sc));
               if a.Caps.plane <> Scenario.expected_plane sc then
                 fail i
                   (Format.asprintf
                      "negotiation: agreed plane %a, offers dictate %a"
                      Caps.pp_plane a.Caps.plane Caps.pp_plane
                      (Scenario.expected_plane sc));
               (match sc.Scenario.profile with
               | Scenario.P_af _ ->
                   if not (a.Caps.target_bps > 0.0) then
                     fail i "negotiation: QTP_AF agreed without a QoS target"
               | _ -> ());
               (* Full reliability: once closed cleanly, the receiver
                  holds exactly the prefix of what the sender emitted. *)
               if
                 a.Caps.mode = Caps.R_full
                 && (match st with Qtp.Connection.Closed -> true | _ -> false)
               then begin
                 let sent = Qtp.Connection.data_sent c in
                 let delivered = Qtp.Connection.delivered c in
                 let skipped = Qtp.Connection.skipped c in
                 let abandoned = Qtp.Connection.abandoned c in
                 if skipped <> 0 then
                   fail i
                     (Printf.sprintf
                        "full reliability: receiver skipped %d segment(s)"
                        skipped);
                 if abandoned <> 0 then
                   fail i
                     (Printf.sprintf
                        "full reliability: sender abandoned %d segment(s)"
                        abandoned);
                 if delivered <> sent then
                   fail i
                     (Printf.sprintf
                        "full reliability: delivered %d of %d distinct \
                         segments"
                        delivered sent)
               end;
               (* A repair arrives once: on one unmangled path, a
                  standard-plane flow is SACKed per data packet, so
                  only an expiry can send a segment the receiver
                  already holds.  (The light plane reports once per RTT
                  in at most a few blocks, and may never report a hole
                  a repair filled.) *)
               if
                 unmangled_path && a.Caps.plane = Caps.Standard
                 && a.Caps.mode <> Caps.R_none
                 && Qtp.Connection.expiry_losses c = 0
                 && Qtp.Connection.duplicates_received c > 0
               then
                 fail i
                   (Printf.sprintf
                      "repair arrives once: receiver counted %d duplicate \
                       segment(s) with no expiry-inferred loss (%d \
                       retransmissions)"
                      (Qtp.Connection.duplicates_received c)
                      (Qtp.Connection.retransmissions c)));
           {
             flow = i;
             final = state_str (Qtp.Connection.state c);
             data_sent = Qtp.Connection.data_sent c;
             retx = Qtp.Connection.retransmissions c;
             delivered = Qtp.Connection.delivered c;
             skipped = Qtp.Connection.skipped c;
             abandoned = Qtp.Connection.abandoned c;
           })
         conns)
  in
  (* Trunk conservation oracle: once the trunk connection agreed full
     reliability and closed cleanly, every byte every user shipped was
     delivered exactly once, byte-identical (digests), and every user
     whose admission queue drained had all admitted bytes shipped. *)
  let trunk_stats =
    match trunk_mux with
    | None -> None
    | Some (mux, _) ->
        (match (crash, agreed_at_close.(0), Qtp.Connection.state conns.(0)) with
        | None, Some a, Qtp.Connection.Closed when a.Caps.mode = Caps.R_full
          -> (
            match Trunk.Mux.check_conservation mux with
            | Ok () -> ()
            | Error what -> fail 0 ("trunk conservation: " ^ what))
        | _ -> ());
        let n = Trunk.Mux.users mux in
        let sum get =
          let s = ref 0 in
          for u = 0 to n - 1 do
            s := !s + get ~user:u
          done;
          !s
        in
        let dlv = Trunk.Mux.delivered_per_user mux in
        let jain =
          if Array.exists (fun x -> x > 0.0) dlv then Stats.Fairness.jain dlv
          else 1.0
        in
        Some
          {
            tk_users = n;
            tk_admitted = sum (Trunk.Mux.admitted_bytes mux);
            tk_shipped = sum (Trunk.Mux.shipped_bytes mux);
            tk_delivered = sum (Trunk.Mux.delivered_bytes mux);
            tk_segments = Trunk.Mux.segments_packed mux;
            tk_frames = Trunk.Mux.frames_packed mux;
            tk_rejected = Trunk.Mux.rejected mux;
            tk_junk = Trunk.Mux.junk_bytes mux;
            tk_jain = jain;
          }
  in
  let mangled =
    List.fold_left
      (fun (acc : Netsim.Mangler.stats) link ->
        match Netsim.Link.mangler link with
        | None -> acc
        | Some m ->
            let s = Netsim.Mangler.stats m in
            {
              Netsim.Mangler.passed = acc.Netsim.Mangler.passed + s.Netsim.Mangler.passed;
              reordered = acc.Netsim.Mangler.reordered + s.Netsim.Mangler.reordered;
              duplicated = acc.Netsim.Mangler.duplicated + s.Netsim.Mangler.duplicated;
              corrupted = acc.Netsim.Mangler.corrupted + s.Netsim.Mangler.corrupted;
            })
      { Netsim.Mangler.passed = 0; reordered = 0; duplicated = 0; corrupted = 0 }
      topo.Netsim.Topology.links
  in
  let invariant_failures =
    List.map (fun v -> Invariant v) (Analysis.Invariants.violations checker)
  in
  let crash_failures =
    match crash with None -> [] | Some msg -> [ Crash msg ]
  in
  {
    scenario = sc;
    failures = crash_failures @ invariant_failures @ List.rev !oracle_failures;
    flows;
    mangled;
    trunk = trunk_stats;
    handshake_timeouts = !handshake_timeouts;
    checker_events = Analysis.Invariants.events_seen checker;
  }

let pp_failure fmt = function
  | Invariant v -> Analysis.Invariants.pp_violation fmt v
  | Oracle { flow; what } -> Format.fprintf fmt "[oracle] flow %d: %s" flow what
  | Crash msg -> Format.fprintf fmt "[crash] %s" msg

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%a@," Scenario.pp r.scenario;
  List.iter
    (fun f ->
      Format.fprintf fmt
        "flow %d: %s sent=%d retx=%d delivered=%d skipped=%d abandoned=%d@,"
        f.flow f.final f.data_sent f.retx f.delivered f.skipped f.abandoned)
    r.flows;
  Format.fprintf fmt
    "mangled: %d passed, %d reordered, %d duplicated, %d corrupted@,"
    r.mangled.Netsim.Mangler.passed r.mangled.Netsim.Mangler.reordered
    r.mangled.Netsim.Mangler.duplicated r.mangled.Netsim.Mangler.corrupted;
  (match r.trunk with
  | None -> ()
  | Some tk ->
      Format.fprintf fmt
        "trunk: %d users admitted=%d shipped=%d delivered=%d segs=%d \
         frames=%d rejected=%d junk=%d jain=%.4f@,"
        tk.tk_users tk.tk_admitted tk.tk_shipped tk.tk_delivered
        tk.tk_segments tk.tk_frames tk.tk_rejected tk.tk_junk tk.tk_jain);
  Format.fprintf fmt "checker events: %d@," r.checker_events;
  (match r.failures with
  | [] -> Format.fprintf fmt "verdict: PASS"
  | fs ->
      Format.fprintf fmt "verdict: FAIL (%d)" (List.length fs);
      List.iter (fun f -> Format.fprintf fmt "@,  %a" pp_failure f) fs);
  Format.fprintf fmt "@]"
