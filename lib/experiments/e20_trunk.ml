let n_users = 24

let g_mbps = 4.0

let bottleneck_mbps = 10.0

let excess_mbps = 24.0

let n_excess_flows = 4

(* Enough per-user bytes to stay backlogged for the whole run: the
   trunk can ship at most g * duration in profile, so 2 MB x 24 users
   comfortably exceeds the pipe. *)
let workload_bytes = 2_000_000

let measure series =
  Stats.Series.rate_bps series ~from_:Common.warmup ~until:Common.duration

(* One AF dumbbell: [n_committed] reserved flows (given per-flow
   committed rates) plus the unresponsive Poisson excess aggregates. *)
let build ~seed ~committed =
  let n_committed = Array.length committed in
  let n_flows = n_committed + n_excess_flows in
  let all = Array.make n_flows 0.0 in
  Array.blit committed 0 all 0 n_committed;
  let sim, topo =
    Common.af_dumbbell ~seed ~n_flows ~bottleneck_mbps ~committed_mbps:all ()
  in
  let rng = Engine.Sim.split_rng sim in
  let per_flow = Common.mbps (excess_mbps /. float_of_int n_excess_flows) in
  for i = n_committed to n_flows - 1 do
    let ep = Netsim.Topology.endpoint topo i in
    Common.sink_background ep;
    ignore
      (Workload.Background.poisson ~sim ~sink:ep.Netsim.Topology.to_receiver
         ~flow_id:i ~rng:(Engine.Rng.split rng) ~rate_bps:per_flow
         ~packet_size:1000 ())
  done;
  (sim, topo)

type arm = { label : string; sched : string; rate_bps : float; jain : float }

let run_trunk ~seed ~discipline =
  let sim, topo = build ~seed ~committed:[| g_mbps |] in
  let cfg = Trunk.Mux.config ~discipline ~users:n_users () in
  let mux = Trunk.Mux.create cfg in
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_af ~g_bps:(Common.mbps g_mbps) ())
      (Qtp.Profile.anything ())
  in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~source:(Trunk.Mux.source mux)
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Trunk.Mux.attach mux ~conn ~seg_payload:Qtp.Vtp_wire.payload;
  let workloads = Array.make n_users workload_bytes in
  ignore (Trunk.Mux.feed mux ~sim ~workloads ~stop_at:Common.duration ());
  Engine.Sim.run ~until:Common.duration sim;
  let wire_rate =
    measure (Qtp.Connection.goodput conn)
    *. float_of_int Qtp.Vtp_wire.packet_size
    /. float_of_int Qtp.Vtp_wire.payload
  in
  {
    label = "QTP_AF trunk";
    sched = (match discipline with Trunk.Sched.Drr -> "drr" | Fifo -> "fifo");
    rate_bps = wire_rate;
    jain = Stats.Fairness.jain (Trunk.Mux.delivered_per_user mux);
  }

let run_tcp ~seed =
  let committed = Array.make n_users (g_mbps /. float_of_int n_users) in
  let sim, topo = build ~seed ~committed in
  let flows =
    Array.init n_users (fun i ->
        Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo i) ())
  in
  Engine.Sim.run ~until:Common.duration sim;
  let payload = Tcp.Tcp_sender.packet_size in
  let wire = Tcp.Tcp_wire.seg_size ~payload in
  let rates =
    Array.map
      (fun f ->
        measure (Tcp.Flow.goodput_series f)
        *. float_of_int wire
        /. float_of_int payload)
      flows
  in
  {
    label = "TCP per-flow";
    sched = "-";
    rate_bps = Array.fold_left ( +. ) 0.0 rates;
    jain = Stats.Fairness.jain rates;
  }

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E20: %d users sharing a g = %.0f Mb/s AF reservation (%.0f Mb/s \
            RIO bottleneck, %.0f Mb/s excess): one trunked gTFRC connection \
            vs per-flow TCP"
           n_users g_mbps bottleneck_mbps excess_mbps)
      ~columns:
        [
          ("transport", Stats.Table.Left);
          ("sched", Stats.Table.Left);
          ("achieved (Mb/s)", Stats.Table.Right);
          ("achieved/g", Stats.Table.Right);
          ("jain(users)", Stats.Table.Right);
        ]
  in
  let arms =
    [
      run_trunk ~seed ~discipline:Trunk.Sched.Drr;
      run_trunk ~seed ~discipline:Trunk.Sched.Fifo;
      run_tcp ~seed;
    ]
  in
  List.iter
    (fun a ->
      Stats.Table.add_row table
        [
          a.label;
          a.sched;
          Stats.Table.cell_f (a.rate_bps /. 1e6);
          Stats.Table.cell_f (a.rate_bps /. Common.mbps g_mbps);
          Stats.Table.cell_f ~decimals:3 a.jain;
        ])
    arms;
  table
