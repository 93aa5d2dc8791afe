let red_params =
  {
    Netsim.Red.min_th = 8.0;
    max_th = 25.0;
    max_p = 0.1;
    w_q = 0.002;
    gentle = true;
    idle_pkt_time = 1500.0 *. 8.0 /. 10e6;
  }

let run_case ~seed ~light ~ecn =
  let sim = Engine.Sim.create ~seed () in
  let rng = Engine.Sim.split_rng sim in
  let forward =
    Netsim.Topology.spec ~rate_bps:10e6 ~delay:0.04
      ~qdisc:(fun () ->
        Netsim.Qdisc.red ~capacity_pkts:60 ~ecn ~params:red_params
          ~rng:(Engine.Rng.split rng) ())
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  Common.instrument topo;
  let offer =
    if light then
      Qtp.Profile.qtp_light ~ecn
        ~reliability:[ Qtp.Capabilities.R_full ] ()
    else Qtp.Profile.qtp_full ~ecn ()
  in
  let responder =
    if light then Qtp.Profile.mobile_receiver () else Qtp.Profile.anything ()
  in
  let agreed = Qtp.Profile.agreed_exn offer responder in
  let endpoint, probe =
    Common.probe_delays ~sim (Netsim.Topology.endpoint topo 0)
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Common.attach_delays probe conn;
  let goodput = Common.tap_goodput ~sim conn in
  Engine.Sim.run ~until:Common.duration sim;
  let st = Netsim.Qdisc.stats (Netsim.Link.qdisc topo.Netsim.Topology.bottleneck) in
  let delays = Common.delivery_delays probe in
  let p99 =
    if Array.length delays = 0 then nan
    else 1000.0 *. Stats.Summary.percentile delays 0.99
  in
  ( Common.measured_rate goodput /. 1e6,
    st.Netsim.Qdisc.dropped,
    st.Netsim.Qdisc.ce_marked,
    Qtp.Connection.retransmissions conn,
    p99 )

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E14: ECN vs drop-based congestion signalling (10 Mb/s RED \
         bottleneck, full reliability)"
      ~columns:
        [
          ("plane", Stats.Table.Left);
          ("signalling", Stats.Table.Left);
          ("goodput (Mb/s)", Stats.Table.Right);
          ("queue drops", Stats.Table.Right);
          ("CE marks", Stats.Table.Right);
          ("retx", Stats.Table.Right);
          ("delay p99 (ms)", Stats.Table.Right);
        ]
  in
  List.iter
    (fun light ->
      List.iter
        (fun ecn ->
          let goodput, drops, marks, retx, p99 = run_case ~seed ~light ~ecn in
          Stats.Table.add_row table
            [
              (if light then "light" else "standard");
              (if ecn then "ECN marks" else "drops");
              Stats.Table.cell_f goodput;
              Stats.Table.cell_i drops;
              Stats.Table.cell_i marks;
              Stats.Table.cell_i retx;
              Stats.Table.cell_f ~decimals:1 p99;
            ])
        [ false; true ])
    [ false; true ];
  table
