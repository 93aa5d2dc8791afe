(* Long-fat-network mixes: the three service profiles sharing one
   AF-class bottleneck at satellite-grade RTTs (250 and 500 ms).  The
   bandwidth-delay product puts thousands of packets in flight per
   flow, so the run-length scoreboard / receiver tracker / loss history
   carry the whole window on every feedback round — this experiment is
   the end-to-end witness that the large-BDP fast path sustains the
   paper's QoS story at RTTs where the per-packet representations used
   to dominate. *)

type proto = Af | Light | Tcp

let proto_name = function
  | Af -> "QTP_AF"
  | Light -> "QTP_light"
  | Tcp -> "TCP"

(* Long-RTT slow starts need tens of RTTs to converge: measure the
   back half of a 40 s run rather than Common's 5/60 window. *)
let duration = 40.0

let warmup = 15.0

type flow_result = {
  proto : proto;
  achieved_bps : float;
  window_pkts : float;  (** achieved rate expressed as packets per RTT *)
  retx : int;
}

let run_mix ~seed ~delay ~bottleneck_mbps =
  let rtt = 2.0 *. delay in
  let g_mbps = bottleneck_mbps /. 4.0 in
  (* Buffer the bottleneck at half a BDP so the AF class can absorb a
     full RTT of feedback lag without tail-dropping green packets. *)
  let bdp_pkts = Common.mbps bottleneck_mbps *. rtt /. (8.0 *. 1500.0) in
  let capacity_pkts = max 100 (int_of_float (0.5 *. bdp_pkts)) in
  let sim, topo =
    Common.af_dumbbell ~capacity_pkts ~seed ~n_flows:3 ~bottleneck_mbps
      ~bottleneck_delay:delay
      ~committed_mbps:[| g_mbps; 0.0; 0.0 |]
      ()
  in
  let mk_qtp i offer =
    let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
    let cfg = Qtp.Connection.config ~initial_rtt:rtt agreed in
    Qtp.Connection.create ~sim ~endpoint:(Netsim.Topology.endpoint topo i) cfg
  in
  let af = mk_qtp 0 (Qtp.Profile.qtp_af ~g_bps:(Common.mbps g_mbps) ()) in
  let light =
    mk_qtp 1
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_full ] ())
  in
  let tcp = Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 2) () in
  Engine.Sim.run ~until:duration sim;
  let measure series = Stats.Series.rate_bps series ~from_:warmup ~until:duration in
  let window_pkts achieved = achieved *. rtt /. (8.0 *. 1500.0) in
  let qtp proto conn =
    let achieved = measure (Qtp.Connection.goodput conn) in
    {
      proto;
      achieved_bps = achieved;
      window_pkts = window_pkts achieved;
      retx = Qtp.Connection.retransmissions conn;
    }
  in
  let tcp_achieved = measure (Tcp.Flow.goodput_series tcp) in
  ( g_mbps,
    [
      qtp Af af;
      qtp Light light;
      {
        proto = Tcp;
        achieved_bps = tcp_achieved;
        window_pkts = window_pkts tcp_achieved;
        retx = Tcp.Tcp_sender.retransmits (Tcp.Flow.sender tcp);
      };
    ] )

(* The last row's AF flow runs a >10k-packet window: the band the
   run-length representations exist for. *)
let configs = [ (0.125, 120.0); (0.25, 120.0); (0.25, 240.0); (0.25, 480.0) ]

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E17: large-BDP mixes — QTP_AF + QTP_light + TCP sharing one AF \
         bottleneck at 250/500 ms RTT (buffer = BDP/2)"
      ~columns:
        [
          ("RTT (ms)", Stats.Table.Right);
          ("btlneck (Mb/s)", Stats.Table.Right);
          ("protocol", Stats.Table.Left);
          ("achieved (Mb/s)", Stats.Table.Right);
          ("achieved/g", Stats.Table.Right);
          ("window (pkts)", Stats.Table.Right);
          ("retx", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (delay, bottleneck_mbps) ->
      let g_mbps, flows = run_mix ~seed ~delay ~bottleneck_mbps in
      List.iter
        (fun r ->
          Stats.Table.add_row table
            [
              Stats.Table.cell_f ~decimals:0 (2.0 *. delay *. 1000.0);
              Stats.Table.cell_f ~decimals:0 bottleneck_mbps;
              proto_name r.proto;
              Stats.Table.cell_f (r.achieved_bps /. 1e6);
              (match r.proto with
              | Af ->
                  Stats.Table.cell_f (r.achieved_bps /. Common.mbps g_mbps)
              | Light | Tcp -> "-");
              Stats.Table.cell_f ~decimals:0 r.window_pkts;
              Stats.Table.cell_i r.retx;
            ])
        flows)
    configs;
  table
