let targets_mbps = [| 1.0; 2.0; 3.0 |]

let excess_mbps = 6.0

let n_excess = 3

let run_group ~seed ~qtp =
  let n_reserved = Array.length targets_mbps in
  let n_flows = n_reserved + n_excess in
  let committed = Array.make n_flows 0.0 in
  Array.blit targets_mbps 0 committed 0 n_reserved;
  let sim, topo =
    Common.af_dumbbell ~seed ~n_flows ~bottleneck_mbps:10.0
      ~committed_mbps:committed ()
  in
  let rng = Engine.Sim.split_rng sim in
  for i = n_reserved to n_flows - 1 do
    let ep = Netsim.Topology.endpoint topo i in
    Common.sink_background ep;
    ignore
      (Workload.Background.poisson ~sim ~sink:ep.Netsim.Topology.to_receiver
         ~flow_id:i ~rng:(Engine.Rng.split rng)
         ~rate_bps:(Common.mbps (excess_mbps /. float_of_int n_excess))
         ~packet_size:1000 ())
  done;
  let rates =
    if qtp then begin
      let conns =
        Array.mapi
          (fun i g ->
            let agreed =
              Qtp.Profile.agreed_exn
                (Qtp.Profile.qtp_af ~g_bps:(Common.mbps g) ())
                (Qtp.Profile.anything ())
            in
            Qtp.Connection.create ~sim
              ~endpoint:(Netsim.Topology.endpoint topo i)
              (Qtp.Connection.config ~initial_rtt:0.2 agreed))
          targets_mbps
      in
      Engine.Sim.run ~until:Common.duration sim;
      Array.map
        (fun c ->
          Common.measured_rate (Qtp.Connection.goodput c)
          *. float_of_int Qtp.Vtp_wire.packet_size
          /. float_of_int Qtp.Vtp_wire.payload)
        conns
    end
    else begin
      let flows =
        Array.mapi
          (fun i _ ->
            Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo i) ())
          targets_mbps
      in
      Engine.Sim.run ~until:Common.duration sim;
      Array.map Common.tcp_wire_rate flows
    end
  in
  rates

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E11: three reserved flows (g = 1/2/3 Mb/s) in one 10 Mb/s AF class \
         under 6 Mb/s excess"
      ~columns:
        [
          ("protocol", Stats.Table.Left);
          ("flow", Stats.Table.Right);
          ("g (Mb/s)", Stats.Table.Right);
          ("achieved (Mb/s)", Stats.Table.Right);
          ("achieved/g", Stats.Table.Right);
        ]
  in
  List.iter
    (fun qtp ->
      let rates = run_group ~seed ~qtp in
      Array.iteri
        (fun i rate ->
          Stats.Table.add_row table
            [
              (if qtp then "QTP_AF" else "TCP");
              Stats.Table.cell_i i;
              Stats.Table.cell_f ~decimals:1 targets_mbps.(i);
              Stats.Table.cell_f (rate /. 1e6);
              Stats.Table.cell_f (rate /. Common.mbps targets_mbps.(i));
            ])
        rates)
    [ false; true ];
  table
