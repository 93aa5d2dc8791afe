let loss_rates = [ 0.01; 0.03; 0.05; 0.10 ]

let burstiness = 0.6

let run_tcp ~seed ~loss =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:5.0 ~delay:0.06
      ~loss:(fun rng -> Netsim.Loss_model.gilbert ~loss ~burstiness ~rng)
      ()
  in
  let flow =
    Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 0) ()
  in
  Engine.Sim.run ~until:Common.duration sim;
  ( Common.tcp_wire_rate flow /. 1e6,
    Tcp.Tcp_sender.timeouts (Tcp.Flow.sender flow) )

let run_qtp ~seed ~loss ~light =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:5.0 ~delay:0.06
      ~loss:(fun rng -> Netsim.Loss_model.gilbert ~loss ~burstiness ~rng)
      ()
  in
  let offer =
    if light then
      Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_partial ] ()
    else Qtp.Profile.qtp_tfrc ()
  in
  let agreed =
    Qtp.Profile.agreed_exn offer
      (if light then Qtp.Profile.mobile_receiver ()
       else Qtp.Profile.anything ())
  in
  let endpoint, arrivals =
    Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  ignore
    (Qtp.Connection.create ~sim ~endpoint
       (Qtp.Connection.config ~initial_rtt:0.2 agreed));
  Engine.Sim.run ~until:Common.duration sim;
  Common.measured_rate arrivals /. 1e6

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E9: throughput over a bursty wireless link (5 Mb/s, Gilbert-Elliott, \
         60 ms one-way delay)"
      ~columns:
        [
          ("loss", Stats.Table.Right);
          ("TCP (Mb/s)", Stats.Table.Right);
          ("TCP timeouts", Stats.Table.Right);
          ("TFRC (Mb/s)", Stats.Table.Right);
          ("QTP_light (Mb/s)", Stats.Table.Right);
          ("TFRC/TCP", Stats.Table.Right);
        ]
  in
  List.iter
    (fun loss ->
      let tcp, timeouts = run_tcp ~seed ~loss in
      let tfrc = run_qtp ~seed ~loss ~light:false in
      let light = run_qtp ~seed ~loss ~light:true in
      Stats.Table.add_row table
        [
          Stats.Table.cell_f ~decimals:2 loss;
          Stats.Table.cell_f tcp;
          Stats.Table.cell_i timeouts;
          Stats.Table.cell_f tfrc;
          Stats.Table.cell_f light;
          Stats.Table.cell_f (tfrc /. tcp);
        ])
    loss_rates;
  table
