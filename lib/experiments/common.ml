let mbps x = x *. 1e6

(* ------------------------------------------------------------------ *)
(* Checked mode: an ambient invariant checker that topology builders
   tap into.  [with_checked ~checked:true run] installs the checker and
   the {!Qtp.Inspect} hooks around [run]; every builder below calls
   {!instrument} so any topology created inside [run] feeds the
   checker.  The run raises {!Analysis.Invariants.Violation} if any
   protocol invariant was broken. *)

(* Domain-local: Runner.run_all fans experiments over Engine.Pool, and
   each domain's run must feed its own checker. *)
let active : Analysis.Invariants.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let instrument (topo : Netsim.Topology.t) =
  match !(Domain.DLS.get active) with
  | None -> ()
  | Some checker -> Analysis.Observe.instrument checker topo

let with_checked ~checked run =
  if not checked then run ()
  else
    Analysis.Observe.with_checker (fun checker ->
        let slot = Domain.DLS.get active in
        slot := Some checker;
        Fun.protect ~finally:(fun () -> slot := None) run)

(* Trace mode mirrors checked mode: install the ambient flight recorder
   around the run, return it alongside the result. *)
let with_trace ~trace run =
  if not trace then (run (), None)
  else
    let x, recorder = Trace.Recorder.with_recorder run in
    (x, Some recorder)

let warmup = 5.0

let duration = 60.0

let red_params ~min_th ~max_th ~max_p =
  {
    Netsim.Red.min_th;
    max_th;
    max_p;
    w_q = 0.002;
    gentle = true;
    idle_pkt_time = 1500.0 *. 8.0 /. 10_000_000.0;
  }

(* RED thresholds scale with the queue: 40/70% of capacity for the
   in-profile curve and 10/30% for out-of-profile, which reproduces the
   historical 40/70 and 10/30-packet thresholds at the default
   100-packet queue while letting LFN scenarios deepen the buffer to
   match their bandwidth-delay product. *)
let af_rio ?(capacity_pkts = 100) ~rng () =
  let c = float_of_int capacity_pkts in
  Netsim.Qdisc.rio ~capacity_pkts
    ~in_params:(red_params ~min_th:(0.4 *. c) ~max_th:(0.7 *. c) ~max_p:0.02)
    ~out_params:(red_params ~min_th:(0.1 *. c) ~max_th:(0.3 *. c) ~max_p:0.5)
    ~rng ()

let af_dumbbell ?capacity_pkts ~seed ~n_flows ~bottleneck_mbps
    ?(bottleneck_delay = 0.03) ~committed_mbps () =
  assert (Array.length committed_mbps = n_flows);
  let sim = Engine.Sim.create ~seed () in
  let qdisc_rng = Engine.Sim.split_rng sim in
  let bottleneck =
    Netsim.Topology.spec
      ~rate_bps:(mbps bottleneck_mbps)
      ~delay:bottleneck_delay
      ~qdisc:(fun () ->
        af_rio ?capacity_pkts ~rng:(Engine.Rng.split qdisc_rng) ())
      ()
  in
  let committed_rates = Array.map mbps committed_mbps in
  let topo =
    Netsim.Topology.dumbbell ~sim ~n_flows ~bottleneck ~committed_rates ()
  in
  instrument topo;
  (sim, topo)

let plain_dumbbell ~seed ~n_flows ~bottleneck_mbps ?(buffer_pkts = 85) () =
  let sim = Engine.Sim.create ~seed () in
  let bottleneck =
    Netsim.Topology.spec
      ~rate_bps:(mbps bottleneck_mbps)
      ~delay:0.03
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:buffer_pkts)
      ()
  in
  let topo = Netsim.Topology.dumbbell ~sim ~n_flows ~bottleneck () in
  instrument topo;
  (sim, topo)

let lossy_path ~seed ~rate_mbps ?(delay = 0.04) ~loss ?rev_loss () =
  let sim = Engine.Sim.create ~seed () in
  let rng = Engine.Sim.split_rng sim in
  let forward =
    Netsim.Topology.spec ~rate_bps:(mbps rate_mbps) ~delay
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
      ~loss:(fun () -> loss (Engine.Rng.split rng))
      ()
  in
  let reverse =
    match rev_loss with
    | None -> None
    | Some rl ->
        Some
          (Netsim.Topology.spec ~rate_bps:(mbps rate_mbps) ~delay
             ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:2000)
             ~loss:(fun () -> rl (Engine.Rng.split rng))
             ())
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward ?reverse () in
  instrument topo;
  (sim, topo)

let bernoulli p rng =
  if p <= 0.0 then Netsim.Loss_model.none
  else Netsim.Loss_model.bernoulli ~p ~rng

let sink_background (ep : Netsim.Topology.endpoint) =
  ep.Netsim.Topology.on_receiver_rx (fun _ -> ())

let measured_rate series =
  Stats.Series.rate_bps series ~from_:warmup ~until:duration

let tcp_wire_rate goodput =
  let payload = Tcp.Tcp_sender.packet_size in
  measured_rate goodput
  *. float_of_int (Tcp.Tcp_wire.seg_size ~payload)
  /. float_of_int payload

let tap_goodput ~sim conn =
  let series = Stats.Series.create () in
  Qtp.Connection.set_on_deliver conn (fun ~seq:_ ->
      Stats.Series.record series ~time:(Engine.Sim.now sim)
        ~bytes:Qtp.Vtp_wire.payload);
  series

let tap_tcp_goodput ~sim flow =
  let series = Stats.Series.create () in
  Tcp.Flow.set_on_deliver flow (fun ~bytes ->
      Stats.Series.record series ~time:(Engine.Sim.now sim) ~bytes);
  series

(* ------------------------------------------------------------------ *)
(* Endpoint probes: per-packet measurement and receiver misbehaviour,
   wrapped around an endpoint instead of living in Qtp.Connection. *)

let probe_arrivals ~sim (ep : Netsim.Topology.endpoint) =
  let series = Stats.Series.create () in
  let on_receiver_rx sink =
    ep.Netsim.Topology.on_receiver_rx (fun (frame : Netsim.Frame.t) ->
        (match frame.Netsim.Frame.body with
        | Qtp.Vtp_wire.Vtp
            ({ Packet.Segment.hdr = Packet.Header.Data _; _ } as seg) ->
            Stats.Series.record series ~time:(Engine.Sim.now sim)
              ~bytes:(Packet.Segment.size seg)
        | _ -> ());
        sink frame)
  in
  ({ ep with Netsim.Topology.on_receiver_rx }, series)

type delay_probe = {
  sim : Engine.Sim.t;
  (* First sends not yet delivered, in sequence order. *)
  first_sent : (Packet.Serial.t * float) Queue.t;
  samples : Stats.Fvec.t;
}

let probe_delays ~sim (ep : Netsim.Topology.endpoint) =
  let d =
    { sim; first_sent = Queue.create (); samples = Stats.Fvec.create () }
  in
  let to_receiver (frame : Netsim.Frame.t) =
    (match frame.Netsim.Frame.body with
    | Qtp.Vtp_wire.Vtp { Packet.Segment.hdr = Packet.Header.Data h; _ }
      when not h.Packet.Header.is_retransmit ->
        Queue.push (h.Packet.Header.seq, Engine.Sim.now sim) d.first_sent
    | _ -> ());
    ep.Netsim.Topology.to_receiver frame
  in
  ({ ep with Netsim.Topology.to_receiver }, d)

(* Both first sends and deliveries come in sequence order, so every
   number queued ahead of a delivered one was skipped (partial
   reliability) and will never be delivered. *)
let rec settle d seq =
  match Queue.peek_opt d.first_sent with
  | Some (s, at) when Packet.Serial.equal s seq ->
      ignore (Queue.pop d.first_sent);
      Stats.Fvec.push d.samples (Engine.Sim.now d.sim -. at)
  | Some (s, _) when Packet.Serial.( < ) s seq ->
      ignore (Queue.pop d.first_sent);
      settle d seq
  | Some _ | None -> ()

let attach_delays d conn =
  Qtp.Connection.set_on_deliver conn (fun ~seq -> settle d seq)

let delivery_delays d = Stats.Fvec.to_array d.samples

let selfish_receiver ~p_factor (ep : Netsim.Topology.endpoint) =
  let to_sender (frame : Netsim.Frame.t) =
    match frame.Netsim.Frame.body with
    | Qtp.Vtp_wire.Vtp
        ({ Packet.Segment.hdr = Packet.Header.Feedback f; _ } as seg) ->
        let hdr =
          Packet.Header.Feedback
            { f with Packet.Header.p = f.Packet.Header.p *. p_factor }
        in
        let body = Qtp.Vtp_wire.Vtp { seg with Packet.Segment.hdr } in
        ep.Netsim.Topology.to_sender { frame with Netsim.Frame.body }
    | _ -> ep.Netsim.Topology.to_sender frame
  in
  { ep with Netsim.Topology.to_sender }

(* ------------------------------------------------------------------ *)
(* Mobility: a single flow over several candidate duplex paths, for
   the handover experiments.  Each path is (rate in Mb/s, one-way
   delay); reverse links take the per-path default, so feedback
   latency jumps with every migration. *)

let mobile_path ~seed ~paths ?(mangle = Netsim.Mangler.none) () =
  let sim = Engine.Sim.create ~seed () in
  let rng = Engine.Sim.split_rng sim in
  let mangle_f () =
    if Netsim.Mangler.is_active mangle then
      Some (Netsim.Mangler.create ~sim ~rng:(Engine.Rng.split rng) mangle)
    else None
  in
  let spec_of (rate_mbps, delay) =
    Netsim.Topology.spec ~rate_bps:(mbps rate_mbps) ~delay
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:60)
      ~mangle:mangle_f ()
  in
  let m = Netsim.Topology.mobile ~sim ~paths:(List.map spec_of paths) () in
  instrument (Netsim.Topology.mobile_net m);
  (sim, m)

let declared_link m i =
  let fwd = Netsim.Topology.path_fwd m i in
  let rev = Netsim.Topology.path_rev m i in
  Tfrc.Handover.link_of
    ~bandwidth_bps:(Netsim.Link.rate_bps fwd)
    ~rtt:(Netsim.Link.delay fwd +. Netsim.Link.delay rev)
