type outcome = {
  plane : string;
  recv_ops : int;
  recv_ops_per_pkt : float;
  recv_lh_entries : int;
  send_ops : int;
  fb_packets : int;
  fb_bytes : int;
  rate_mbps : float;
}

let run_plane ~seed ~loss ~light =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:10.0 ~loss:(Common.bernoulli loss) ()
  in
  let cost_sender = Stats.Cost.create () in
  let cost_receiver = Stats.Cost.create () in
  let offer =
    if light then Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ()
    else Qtp.Profile.qtp_tfrc ()
  in
  let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
  let endpoint, arrivals =
    Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint ~cost_sender ~cost_receiver
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Engine.Sim.run ~until:Common.duration sim;
  let packets = Stats.Series.count arrivals in
  let recv_ops = Stats.Cost.total_ops cost_receiver in
  {
    plane = (if light then "QTP_light" else "standard TFRC");
    recv_ops;
    recv_ops_per_pkt =
      (if packets = 0 then nan else float_of_int recv_ops /. float_of_int packets);
    recv_lh_entries = Stats.Cost.high_water cost_receiver "lh.entries";
    send_ops = Stats.Cost.total_ops cost_sender;
    fb_packets = Qtp.Connection.feedback_packets conn;
    fb_bytes = Qtp.Connection.feedback_bytes conn;
    rate_mbps = Common.measured_rate arrivals /. 1e6;
  }

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E5: receiver load — standard RFC3448 receiver vs QTP_light (10 Mb/s \
         path)"
      ~columns:
        [
          ("loss", Stats.Table.Right);
          ("receiver", Stats.Table.Left);
          ("rate (Mb/s)", Stats.Table.Right);
          ("recv ops", Stats.Table.Right);
          ("ops/pkt", Stats.Table.Right);
          ("recv hist entries", Stats.Table.Right);
          ("sender ops", Stats.Table.Right);
          ("fb pkts", Stats.Table.Right);
          ("fb bytes", Stats.Table.Right);
        ]
  in
  List.iter
    (fun loss ->
      List.iter
        (fun light ->
          let o = run_plane ~seed ~loss ~light in
          Stats.Table.add_row table
            [
              Stats.Table.cell_f ~decimals:3 loss;
              o.plane;
              Stats.Table.cell_f o.rate_mbps;
              Stats.Table.cell_i o.recv_ops;
              Stats.Table.cell_f o.recv_ops_per_pkt;
              Stats.Table.cell_i o.recv_lh_entries;
              Stats.Table.cell_i o.send_ops;
              Stats.Table.cell_i o.fb_packets;
              Stats.Table.cell_i o.fb_bytes;
            ])
        [ false; true ])
    [ 0.01; 0.05 ];
  table
