type proto = Tcp_newreno | Qtp_af | Tfrc_full_nofloor

let proto_name = function
  | Tcp_newreno -> "TCP"
  | Qtp_af -> "QTP_AF"
  | Tfrc_full_nofloor -> "TFRC+SACK (no floor)"

type result = {
  achieved_wire_bps : float;
  goodput_bps : float;
  retransmissions : int;
  bottleneck_green_drops : int;
  bottleneck_total_drops : int;
}

let run ~seed ~g_mbps ~proto ?(bottleneck_mbps = 10.0) ?(excess_mbps = 8.0)
    ?(n_excess_flows = 4) ?(link_loss = 0.0) ?(duration = Common.duration) () =
  let measure series =
    Stats.Series.rate_bps series
      ~from_:(Float.min Common.warmup (0.2 *. duration))
      ~until:duration
  in
  let n_flows = 1 + n_excess_flows in
  let committed = Array.make n_flows 0.0 in
  committed.(0) <- g_mbps;
  let sim = Engine.Sim.create ~seed () in
  let qdisc_rng = Engine.Sim.split_rng sim in
  let bottleneck =
    Netsim.Topology.spec
      ~rate_bps:(Common.mbps bottleneck_mbps)
      ~delay:0.03
      ~qdisc:(fun () -> Common.af_rio ~rng:(Engine.Rng.split qdisc_rng) ())
      ~loss:(fun () ->
        if link_loss > 0.0 then
          Netsim.Loss_model.bernoulli ~p:link_loss
            ~rng:(Engine.Rng.split qdisc_rng)
        else Netsim.Loss_model.none)
      ()
  in
  let topo =
    Netsim.Topology.dumbbell ~sim ~n_flows ~bottleneck
      ~committed_rates:(Array.map Common.mbps committed)
      ()
  in
  Common.instrument topo;
  let rng = Engine.Sim.split_rng sim in
  (* Unresponsive excess load, spread over several Poisson aggregates so
     it does not synchronise with anything. *)
  let per_flow = Common.mbps (excess_mbps /. float_of_int n_excess_flows) in
  for i = 1 to n_excess_flows do
    let ep = Netsim.Topology.endpoint topo i in
    Common.sink_background ep;
    ignore
      (Workload.Background.poisson ~sim
         ~sink:ep.Netsim.Topology.to_receiver ~flow_id:i
         ~rng:(Engine.Rng.split rng) ~rate_bps:per_flow ~packet_size:1000 ())
  done;
  let ep = Netsim.Topology.endpoint topo 0 in
  let finish goodput_bps ~wire ~payload ~retx =
    let qd = Netsim.Link.qdisc topo.Netsim.Topology.bottleneck in
    let st = Netsim.Qdisc.stats qd in
    {
      achieved_wire_bps =
        goodput_bps *. float_of_int wire /. float_of_int payload;
      goodput_bps;
      retransmissions = retx;
      bottleneck_green_drops = st.Netsim.Qdisc.dropped_green;
      bottleneck_total_drops = st.Netsim.Qdisc.dropped;
    }
  in
  match proto with
  | Tcp_newreno ->
      let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
      let goodput = Common.tap_tcp_goodput ~sim flow in
      Engine.Sim.run ~until:duration sim;
      let rate = measure goodput in
      let payload = Tcp.Tcp_sender.packet_size in
      finish rate ~wire:(Tcp.Tcp_wire.seg_size ~payload) ~payload
        ~retx:(Tcp.Tcp_sender.retransmits (Tcp.Flow.sender flow))
  | Qtp_af | Tfrc_full_nofloor ->
      let offer =
        match proto with
        | Qtp_af -> Qtp.Profile.qtp_af ~g_bps:(Common.mbps g_mbps) ()
        | Tcp_newreno | Tfrc_full_nofloor -> Qtp.Profile.qtp_full ()
      in
      let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
      let cfg = Qtp.Connection.config ~initial_rtt:0.2 agreed in
      let conn = Qtp.Connection.create ~sim ~endpoint:ep cfg in
      let goodput = Common.tap_goodput ~sim conn in
      Engine.Sim.run ~until:duration sim;
      let rate = measure goodput in
      finish rate ~wire:Qtp.Vtp_wire.packet_size ~payload:Qtp.Vtp_wire.payload
        ~retx:(Qtp.Connection.retransmissions conn)
