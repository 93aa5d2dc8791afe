let group_sizes = [ 1; 2; 4; 8 ]

let run_one ~seed ~n =
  let n_flows = 2 * n in
  let sim, topo =
    Common.plain_dumbbell ~seed ~n_flows ~bottleneck_mbps:10.0 ()
  in
  (* Flows 0..n-1: TFRC; flows n..2n-1: TCP. *)
  let tfrc_arrivals =
    List.init n (fun i ->
        let agreed =
          Qtp.Profile.agreed_exn (Qtp.Profile.qtp_tfrc ())
            (Qtp.Profile.anything ())
        in
        let endpoint, arrivals =
          Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo i)
        in
        ignore
          (Qtp.Connection.create ~sim ~endpoint
             (Qtp.Connection.config ~initial_rtt:0.2 agreed));
        arrivals)
  in
  let tcp_goodputs =
    List.init n (fun i ->
        Common.tap_tcp_goodput ~sim
          (Tcp.Flow.create ~sim
             ~endpoint:(Netsim.Topology.endpoint topo (n + i))
             ()))
  in
  Engine.Sim.run ~until:Common.duration sim;
  let tfrc_rates =
    Array.of_list (List.map Common.measured_rate tfrc_arrivals)
  in
  (* TCP's payload goodput scaled to wire bytes, for a fair comparison. *)
  let tcp_rates = Array.of_list (List.map Common.tcp_wire_rate tcp_goodputs) in
  (tfrc_rates, tcp_rates)

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E4: TCP-friendliness — n TFRC vs n TCP on a shared 10 Mb/s droptail \
         bottleneck"
      ~columns:
        [
          ("n per group", Stats.Table.Right);
          ("TFRC agg (Mb/s)", Stats.Table.Right);
          ("TCP agg (Mb/s)", Stats.Table.Right);
          ("TFRC/TCP ratio", Stats.Table.Right);
          ("Jain index", Stats.Table.Right);
        ]
  in
  List.iter
    (fun n ->
      let tfrc, tcp = run_one ~seed ~n in
      let ratio = Stats.Fairness.throughput_ratio tfrc tcp in
      let jain = Stats.Fairness.jain (Array.append tfrc tcp) in
      let agg a = Array.fold_left ( +. ) 0.0 a /. 1e6 in
      Stats.Table.add_row table
        [
          Stats.Table.cell_i n;
          Stats.Table.cell_f (agg tfrc);
          Stats.Table.cell_f (agg tcp);
          Stats.Table.cell_f ratio;
          Stats.Table.cell_f ~decimals:3 jain;
        ])
    group_sizes;
  table
