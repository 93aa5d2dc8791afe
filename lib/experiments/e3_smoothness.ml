let loss_rates = [ 0.005; 0.01; 0.02; 0.05 ]

let window = 0.5

let cov_of series =
  let rates =
    Stats.Series.windowed_rates_bps series ~from_:Common.warmup
      ~until:Common.duration ~window
  in
  let s = Stats.Summary.of_array rates in
  (Stats.Summary.cov s, s.Stats.Summary.mean)

let run_tfrc ~seed ~loss =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:10.0 ~loss:(Common.bernoulli loss) ()
  in
  let agreed =
    Qtp.Profile.agreed_exn (Qtp.Profile.qtp_tfrc ()) (Qtp.Profile.anything ())
  in
  let endpoint, arrivals =
    Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  ignore
    (Qtp.Connection.create ~sim ~endpoint
       (Qtp.Connection.config ~initial_rtt:0.2 agreed));
  Engine.Sim.run ~until:Common.duration sim;
  cov_of arrivals

let run_tcp ~seed ~loss =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:10.0 ~loss:(Common.bernoulli loss) ()
  in
  let flow =
    Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 0) ()
  in
  let goodput = Common.tap_tcp_goodput ~sim flow in
  Engine.Sim.run ~until:Common.duration sim;
  cov_of goodput

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E3: throughput smoothness, CoV of 500 ms windows (10 Mb/s path, \
         Bernoulli loss)"
      ~columns:
        [
          ("loss", Stats.Table.Right);
          ("TCP mean (Mb/s)", Stats.Table.Right);
          ("TCP CoV", Stats.Table.Right);
          ("TFRC mean (Mb/s)", Stats.Table.Right);
          ("TFRC CoV", Stats.Table.Right);
          ("CoV ratio TCP/TFRC", Stats.Table.Right);
        ]
  in
  List.iter
    (fun loss ->
      let tcp_cov, tcp_mean = run_tcp ~seed ~loss in
      let tfrc_cov, tfrc_mean = run_tfrc ~seed ~loss in
      Stats.Table.add_row table
        [
          Stats.Table.cell_f ~decimals:3 loss;
          Stats.Table.cell_f (tcp_mean /. 1e6);
          Stats.Table.cell_f ~decimals:3 tcp_cov;
          Stats.Table.cell_f (tfrc_mean /. 1e6);
          Stats.Table.cell_f ~decimals:3 tfrc_cov;
          Stats.Table.cell_f (tcp_cov /. tfrc_cov);
        ])
    loss_rates;
  table
