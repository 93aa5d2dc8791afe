let media_rate = 2.0e6

let path_loss = 0.03

let burstiness = 0.5

let modes =
  [
    ("none", [ Qtp.Capabilities.R_none ]);
    ("partial", [ Qtp.Capabilities.R_partial ]);
    ("full", [ Qtp.Capabilities.R_full ]);
  ]

let run_mode ~seed ~reliability =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:10.0
      ~loss:(fun rng ->
        Netsim.Loss_model.gilbert ~loss:path_loss ~burstiness ~rng)
      ()
  in
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_light ~reliability ())
      (Qtp.Profile.mobile_receiver ())
  in
  let source =
    Qtp.Source.cbr ~sim ~rate_bps:media_rate ~packet_size:1500 ()
  in
  let endpoint, delays =
    Common.probe_delays ~sim (Netsim.Topology.endpoint topo 0)
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint ~source
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Common.attach_delays delays conn;
  Engine.Sim.run ~until:Common.duration sim;
  (conn, Common.delivery_delays delays)

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E8: reliability modes for a 2 Mb/s media stream (Gilbert loss \
            %.0f%%, burstiness %.1f)"
           (path_loss *. 100.0) burstiness)
      ~columns:
        [
          ("mode", Stats.Table.Left);
          ("sent", Stats.Table.Right);
          ("retx", Stats.Table.Right);
          ("abandoned", Stats.Table.Right);
          ("delivered", Stats.Table.Right);
          ("skipped", Stats.Table.Right);
          ("delivery ratio", Stats.Table.Right);
          ("delay p50 (ms)", Stats.Table.Right);
          ("delay p99 (ms)", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (name, reliability) ->
      let conn, delays = run_mode ~seed ~reliability in
      let delivered = Qtp.Connection.delivered conn in
      let skipped = Qtp.Connection.skipped conn in
      let pct q =
        if Array.length delays = 0 then nan
        else 1000.0 *. Stats.Summary.percentile delays q
      in
      Stats.Table.add_row table
        [
          name;
          Stats.Table.cell_i (Qtp.Connection.data_sent conn);
          Stats.Table.cell_i (Qtp.Connection.retransmissions conn);
          Stats.Table.cell_i (Qtp.Connection.abandoned conn);
          Stats.Table.cell_i delivered;
          Stats.Table.cell_i skipped;
          Stats.Table.cell_f ~decimals:4
            (float_of_int delivered /. float_of_int (delivered + skipped));
          Stats.Table.cell_f ~decimals:1 (pct 0.5);
          Stats.Table.cell_f ~decimals:1 (pct 0.99);
        ])
    modes;
  table
