let run_case ~seed ~damping =
  let sim = Engine.Sim.create ~seed () in
  (* Short base RTT (10 ms) with a buffer worth ~30 ms: queueing delay
     dominates the RTT — the §4.5 regime. *)
  let forward =
    Netsim.Topology.spec ~rate_bps:10e6 ~delay:0.005
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:25)
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  Common.instrument topo;
  let monitor =
    Netsim.Monitor.start ~sim
      ~qdisc:(Netsim.Link.qdisc topo.Netsim.Topology.bottleneck)
      ~interval:0.01 ~until:Common.duration ()
  in
  let agreed =
    Qtp.Profile.agreed_exn (Qtp.Profile.qtp_tfrc ()) (Qtp.Profile.anything ())
  in
  let endpoint, arrivals =
    Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  ignore
    (Qtp.Connection.create ~sim ~endpoint
       (Qtp.Connection.config ~initial_rtt:0.05 ~oscillation_damping:damping
          agreed));
  Engine.Sim.run ~until:Common.duration sim;
  let rates =
    Stats.Series.windowed_rates_bps arrivals ~from_:Common.warmup
      ~until:Common.duration ~window:0.25
  in
  let rate_summary = Stats.Summary.of_array rates in
  let q = Netsim.Monitor.samples_pkts monitor in
  let steady = Array.sub q 500 (Array.length q - 500) in
  let q_summary = Stats.Summary.of_array steady in
  (rate_summary, q_summary)

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "Ablation: oscillation damping (RFC 3448 §4.5) on an underbuffered \
         path (10 Mb/s, 10 ms base RTT, 25-packet buffer)"
      ~columns:
        [
          ("damping", Stats.Table.Left);
          ("rate (Mb/s)", Stats.Table.Right);
          ("rate CoV", Stats.Table.Right);
          ("queue mean (pkts)", Stats.Table.Right);
          ("queue stddev", Stats.Table.Right);
        ]
  in
  List.iter
    (fun damping ->
      let r, q = run_case ~seed ~damping in
      Stats.Table.add_row table
        [
          (if damping then "on" else "off");
          Stats.Table.cell_f (r.Stats.Summary.mean /. 1e6);
          Stats.Table.cell_f ~decimals:3 (Stats.Summary.cov r);
          Stats.Table.cell_f q.Stats.Summary.mean;
          Stats.Table.cell_f q.Stats.Summary.stddev;
        ])
    [ false; true ];
  table
