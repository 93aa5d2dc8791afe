(* Media streaming to a mobile receiver — the paper's motivating
   scenario (§1): a GoP-structured video stream crosses a bursty
   wireless hop to a resource-limited handset.

   Two runs, same network and workload:
     - standard RFC 3448 TFRC (receiver computes the loss event rate);
     - QTP_light with partial reliability (receiver does only SACK).

   The receiver's operation counts show why the handset prefers
   QTP_light; delivery ratio and delay show what partial reliability
   buys the stream.

   Run with:  dune exec examples/media_streaming.exe *)

let duration = Ex_common.duration 30.0

let run ~light =
  let sim = Engine.Sim.create ~seed:5 () in
  let rng = Engine.Sim.split_rng sim in
  (* A 5 Mb/s wireless hop with 2% bursty (Gilbert-Elliott) loss. *)
  let forward =
    Netsim.Topology.spec ~rate_bps:5e6 ~delay:0.03
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
      ~loss:(fun () ->
        Netsim.Loss_model.gilbert ~loss:0.02 ~burstiness:0.6
          ~rng:(Engine.Rng.split rng))
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  let cost_receiver = Stats.Cost.create () in
  let offer =
    if light then
      Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_partial ] ()
    else Qtp.Profile.qtp_tfrc ()
  in
  let responder =
    if light then Qtp.Profile.mobile_receiver () else Qtp.Profile.anything ()
  in
  let agreed = Qtp.Profile.agreed_exn offer responder in
  (* The application: a 25 fps video encoder pushing packetised frames. *)
  let source, push = Qtp.Source.queued () in
  let media =
    Workload.Media.start ~sim ~rng:(Engine.Rng.split rng)
      Workload.Media.default_params ~push ~stop_at:duration ()
  in
  (* Endpoint probes: the receiver's arrival log and per-segment
     delivery delays. *)
  let endpoint, arrivals =
    Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  let endpoint, delays = Experiments.Common.probe_delays ~sim endpoint in
  let conn =
    Qtp.Connection.create ~sim ~endpoint ~cost_receiver ~source
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Experiments.Common.attach_delays delays conn;
  Engine.Sim.run ~until:duration sim;
  ( conn,
    cost_receiver,
    media,
    Stats.Series.count arrivals,
    Experiments.Common.delivery_delays delays )

let describe name (conn, cost, media, pkts, delays) =
  let delivered = Qtp.Connection.delivered conn in
  let skipped = Qtp.Connection.skipped conn in
  Format.printf "@.--- %s ---@." name;
  Format.printf "video: %d frames (%.2f Mb/s mean)@."
    (Workload.Media.frames_emitted media)
    (Workload.Media.mean_rate_bps Workload.Media.default_params /. 1e6);
  Format.printf "delivered %d / skipped %d (ratio %.4f), retx %d@." delivered
    skipped
    (float_of_int delivered /. float_of_int (Stdlib.max 1 (delivered + skipped)))
    (Qtp.Connection.retransmissions conn);
  if Array.length delays > 0 then
    Format.printf "delivery delay p50 %.0f ms, p99 %.0f ms@."
      (1000.0 *. Stats.Summary.percentile delays 0.5)
      (1000.0 *. Stats.Summary.percentile delays 0.99);
  Format.printf "receiver: %d ops total, %.2f ops/packet, history entries %d@."
    (Stats.Cost.total_ops cost)
    (float_of_int (Stats.Cost.total_ops cost) /. float_of_int (Stdlib.max 1 pkts))
    (Stats.Cost.high_water cost "lh.entries")

let () =
  describe "standard TFRC receiver" (run ~light:false);
  describe "QTP_light receiver (partial reliability)" (run ~light:true);
  Format.printf
    "@.QTP_light moves the loss-history work off the handset and, with@.\
     partial reliability, repairs what it can before the playout deadline.@."
