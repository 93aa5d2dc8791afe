let n_hops = 3

let hop_mbps = 10.0

let run_case ~seed ~long_is_tfrc =
  let sim = Engine.Sim.create ~seed () in
  let hop () =
    Netsim.Topology.spec ~rate_bps:(Common.mbps hop_mbps) ~delay:0.01
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:85)
      ()
  in
  (* Flow 0: the long flow over all hops; flows 1..n: one per hop. *)
  let paths =
    Array.init (n_hops + 1) (fun i ->
        if i = 0 then (0, n_hops) else (i - 1, i))
  in
  let topo =
    Netsim.Topology.parking_lot ~sim
      ~hops:(List.init n_hops (fun _ -> hop ()))
      ~paths ()
  in
  Common.instrument topo;
  (* Cross traffic: greedy TCP on every hop. *)
  let cross =
    List.init n_hops (fun i ->
        Common.tap_tcp_goodput ~sim
          (Tcp.Flow.create ~sim
             ~endpoint:(Netsim.Topology.endpoint topo (i + 1))
             ()))
  in
  let long_rate =
    if long_is_tfrc then begin
      let agreed =
        Qtp.Profile.agreed_exn (Qtp.Profile.qtp_tfrc ())
          (Qtp.Profile.anything ())
      in
      let endpoint, arrivals =
        Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
      in
      ignore
        (Qtp.Connection.create ~sim ~endpoint
           (Qtp.Connection.config ~initial_rtt:0.2 agreed));
      Engine.Sim.run ~until:Common.duration sim;
      Common.measured_rate arrivals
    end
    else begin
      let goodput =
        Common.tap_tcp_goodput ~sim
          (Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 0) ())
      in
      Engine.Sim.run ~until:Common.duration sim;
      Common.tcp_wire_rate goodput
    end
  in
  let cross_rates = List.map Common.tcp_wire_rate cross in
  (long_rate, cross_rates)

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E16: parking lot — one long flow over %d x %.0f Mb/s hops vs one \
            TCP cross flow per hop (flow-fair share = %.1f Mb/s)"
           n_hops hop_mbps (hop_mbps /. 2.0))
      ~columns:
        [
          ("long flow", Stats.Table.Left);
          ("long rate (Mb/s)", Stats.Table.Right);
          ("long/fair", Stats.Table.Right);
          ("mean cross (Mb/s)", Stats.Table.Right);
          ("hop utilisation", Stats.Table.Right);
        ]
  in
  List.iter
    (fun long_is_tfrc ->
      let long_rate, cross_rates = run_case ~seed ~long_is_tfrc in
      let mean_cross =
        List.fold_left ( +. ) 0.0 cross_rates
        /. float_of_int (List.length cross_rates)
      in
      Stats.Table.add_row table
        [
          (if long_is_tfrc then "TFRC" else "TCP");
          Stats.Table.cell_f (long_rate /. 1e6);
          Stats.Table.cell_f (long_rate /. Common.mbps (hop_mbps /. 2.0));
          Stats.Table.cell_f (mean_cross /. 1e6);
          Stats.Table.cell_f
            ((long_rate +. mean_cross) /. Common.mbps hop_mbps);
        ])
    [ false; true ];
  table
