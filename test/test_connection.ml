(* Qtp.Connection: end-to-end behaviour of the composed protocol. *)

let duplex ?(rate_mbps = 10.0) ?(loss = 0.0) ?(seed = 101) () =
  Experiments.Common.lossy_path ~seed ~rate_mbps
    ~loss:(Experiments.Common.bernoulli loss)
    ()

let agreed_of offer responder = Qtp.Profile.agreed_exn offer responder

(* Run one connection with the harness's arrival log and delivery-delay
   probes on its endpoint. *)
let run_probed ?(until = 20.0) ?source ?(cfg_of = fun a -> Qtp.Connection.config ~initial_rtt:0.2 a) ~loss offer responder =
  let sim, topo = duplex ~loss () in
  let endpoint, arrivals =
    Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  let endpoint, delays = Experiments.Common.probe_delays ~sim endpoint in
  let conn =
    Qtp.Connection.create ~sim ~endpoint ?source
      (cfg_of (agreed_of offer responder))
  in
  Experiments.Common.attach_delays delays conn;
  Engine.Sim.run ~until sim;
  (conn, arrivals, Experiments.Common.delivery_delays delays)

let run_conn ?until ?source ?cfg_of ~loss offer responder =
  let conn, _, _ = run_probed ?until ?source ?cfg_of ~loss offer responder in
  conn

let test_clean_path_fills_link () =
  let _, arrivals, _ =
    run_probed ~loss:0.0 (Qtp.Profile.qtp_tfrc ()) (Qtp.Profile.anything ())
  in
  let rate = Stats.Series.rate_bps arrivals ~from_:5.0 ~until:20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f near link" rate)
    true (rate > 8.0e6)

let test_loss_throttles () =
  let conn, arrivals, _ =
    run_probed ~loss:0.02 (Qtp.Profile.qtp_tfrc ()) (Qtp.Profile.anything ())
  in
  let rate = Stats.Series.rate_bps arrivals ~from_:5.0 ~until:20.0 in
  Alcotest.(check bool) "well below link rate" true (rate < 5.0e6);
  Alcotest.(check bool) "but alive" true (rate > 2.0e5);
  Alcotest.(check bool) "p estimated" true
    (Qtp.Connection.sender_loss_estimate conn > 0.005)

let test_full_reliability_delivers_all () =
  let conn =
    run_conn ~loss:0.05 (Qtp.Profile.qtp_full ()) (Qtp.Profile.anything ())
  in
  Alcotest.(check int) "nothing skipped" 0 (Qtp.Connection.skipped conn);
  Alcotest.(check bool) "retransmissions happened" true
    (Qtp.Connection.retransmissions conn > 0);
  Alcotest.(check bool) "delivered bulk" true
    (Qtp.Connection.delivered conn > 500)

let test_light_full_reliability_delivers_all () =
  let conn =
    run_conn ~loss:0.05
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_full ] ())
      (Qtp.Profile.mobile_receiver ())
  in
  Alcotest.(check int) "nothing skipped" 0 (Qtp.Connection.skipped conn);
  Alcotest.(check bool) "delivered bulk" true
    (Qtp.Connection.delivered conn > 500)

let test_unreliable_skips_losses () =
  let conn =
    run_conn ~loss:0.05
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ())
      (Qtp.Profile.mobile_receiver ())
  in
  Alcotest.(check int) "no retransmissions" 0
    (Qtp.Connection.retransmissions conn);
  Alcotest.(check bool) "losses were skipped" true
    (Qtp.Connection.skipped conn > 0);
  (* Delivery continues past the holes. *)
  Alcotest.(check bool) "delivered bulk" true
    (Qtp.Connection.delivered conn > 500)

let test_light_plane_estimates_loss () =
  let conn =
    run_conn ~loss:0.02
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ())
      (Qtp.Profile.mobile_receiver ())
  in
  let p = Qtp.Connection.sender_loss_estimate conn in
  Alcotest.(check bool)
    (Printf.sprintf "sender-side p %f plausible" p)
    true
    (p > 0.002 && p < 0.08);
  Alcotest.(check bool) "no receiver-side estimate on light plane" true
    (Qtp.Connection.receiver_loss_estimate conn = None)

let test_delivery_delays_recorded () =
  let _, _, d =
    run_probed ~loss:0.02 (Qtp.Profile.qtp_full ()) (Qtp.Profile.anything ())
  in
  Alcotest.(check bool) "delays recorded" true (Array.length d > 100);
  Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x > 0.0) d);
  (* One-way delay is 40 ms; nothing can be faster. *)
  Alcotest.(check bool) "lower bound respected" true
    (Array.for_all (fun x -> x >= 0.039) d)

(* Under partial reliability (here on a 30%-loss path, where repairs
   run out) the reassembly skips abandoned numbers: the delay probe
   must give one sample per delivered segment, none for a skipped one,
   and must keep a delivery tap installed before it. *)
let test_delay_probe_partial_reliability () =
  let sim, topo = duplex ~loss:0.3 () in
  let endpoint, probe =
    Experiments.Common.probe_delays ~sim (Netsim.Topology.endpoint topo 0)
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint
      (Qtp.Connection.config ~initial_rtt:0.2
         (agreed_of
            (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_partial ] ())
            (Qtp.Profile.mobile_receiver ())))
  in
  let tapped = ref 0 in
  Qtp.Connection.set_on_deliver conn (fun ~seq:_ -> incr tapped);
  Experiments.Common.attach_delays probe conn;
  Engine.Sim.run ~until:20.0 sim;
  let d = Experiments.Common.delivery_delays probe in
  let delivered = Qtp.Connection.delivered conn in
  Alcotest.(check bool) "segments were skipped" true
    (Qtp.Connection.skipped conn > 0);
  Alcotest.(check int) "one delay per delivered segment" delivered
    (Array.length d);
  Alcotest.(check int) "earlier tap kept" delivered !tapped;
  Alcotest.(check bool) "each delay at least the one-way delay" true
    (Array.for_all (fun x -> x >= 0.04) d)

let test_gtfrc_target_respected_under_loss () =
  let g = 2.0e6 in
  let conn =
    run_conn ~loss:0.05 (Qtp.Profile.qtp_af ~g_bps:g ()) (Qtp.Profile.anything ())
  in
  (* At 5% random loss TFRC alone would sit far below 2 Mb/s (compare
     test_loss_throttles at 2%); the floor must hold the sending rate. *)
  Alcotest.(check bool) "rate floored at g" true
    (Qtp.Connection.current_rate_bps conn >= g *. 0.99)

let test_cbr_source_limits_rate () =
  let sim, topo = duplex ~loss:0.0 () in
  let media = 1.0e6 in
  let source = Qtp.Source.cbr ~sim ~rate_bps:media ~packet_size:1500 () in
  let endpoint, arrivals =
    Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  ignore
    (Qtp.Connection.create ~sim ~endpoint ~source
       (Qtp.Connection.config ~initial_rtt:0.2
          (agreed_of (Qtp.Profile.qtp_tfrc ()) (Qtp.Profile.anything ()))));
  Engine.Sim.run ~until:20.0 sim;
  let rate = Stats.Series.rate_bps arrivals ~from_:5.0 ~until:20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f ~ media rate" rate)
    true
    (Float.abs (rate -. media) /. media < 0.1)

let test_negotiated_handshake_establishes () =
  let sim, topo = duplex ~loss:0.0 () in
  let conn =
    Qtp.Connection.create_negotiated ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~initial_rtt:0.2
      ~initiator:(Qtp.Profile.qtp_light ())
      ~responder:(Qtp.Profile.mobile_receiver ())
      ()
  in
  Engine.Sim.run ~until:5.0 sim;
  (match Qtp.Connection.state conn with
  | Qtp.Connection.Established a ->
      Alcotest.(check bool) "light plane" true
        (a.Qtp.Capabilities.plane = Qtp.Capabilities.Light)
  | _ -> Alcotest.fail "expected established");
  Alcotest.(check int) "3-segment handshake" 3
    (Qtp.Connection.handshake_packets conn);
  Alcotest.(check bool) "data flowed" true (Qtp.Connection.delivered conn > 0)

let test_negotiation_failure_is_clean () =
  let sim, topo = duplex ~loss:0.0 () in
  let conn =
    Qtp.Connection.create_negotiated ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~initiator:(Qtp.Profile.qtp_af ~g_bps:1e6 ())
      ~responder:(Qtp.Profile.qtp_light ())
      ()
  in
  Engine.Sim.run ~until:5.0 sim;
  (match Qtp.Connection.state conn with
  | Qtp.Connection.Failed _ -> ()
  | _ -> Alcotest.fail "expected failure");
  Alcotest.(check int) "nothing delivered" 0 (Qtp.Connection.delivered conn);
  Alcotest.(check int) "no data sent" 0 (Qtp.Connection.data_sent conn)

let test_feedback_flows_both_planes () =
  let std =
    run_conn ~loss:0.01 (Qtp.Profile.qtp_tfrc ()) (Qtp.Profile.anything ())
  in
  let light =
    run_conn ~loss:0.01
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ())
      (Qtp.Profile.mobile_receiver ())
  in
  Alcotest.(check bool) "std feedback" true (Qtp.Connection.feedback_packets std > 10);
  Alcotest.(check bool) "light feedback" true
    (Qtp.Connection.feedback_packets light > 10);
  Alcotest.(check bool) "bytes counted" true
    (Qtp.Connection.feedback_bytes light > 0)

(* A forward point far ahead costs the receiver one gap, not one step
   per number: on a QTP_light partial-reliability connection, data 1
   carrying forward point 2^20 delivers 1, skips the 2^20 - 2 numbers
   in [\[2, 2^20)] and allocates almost nothing.  Frames are handed
   straight to the receiver half; the simulation never runs. *)
let test_far_forward_point_is_cheap () =
  let sim = Engine.Sim.create () in
  let rx = ref (fun (_ : Netsim.Frame.t) -> ()) in
  let endpoint =
    {
      Netsim.Topology.flow_id = 0;
      to_receiver = ignore;
      to_sender = ignore;
      on_receiver_rx = (fun f -> rx := f);
      on_sender_rx = ignore;
    }
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint
      (Qtp.Connection.config ~initial_rtt:0.2
         (agreed_of
            (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_partial ] ())
            (Qtp.Profile.mobile_receiver ())))
  in
  let data seq fwd =
    Qtp.Vtp_wire.frame_of ~flow_id:0
      (Packet.Segment.make ~payload:1000
         ~hdr:
           (Packet.Header.Data
              {
                seq = Packet.Serial.of_int seq;
                tstamp = 0.0;
                rtt_estimate = 0.1;
                is_retransmit = false;
                fwd_point = Packet.Serial.of_int fwd;
              }))
  in
  let d0 = data 0 1 and d1 = data 1 (1 lsl 20) in
  !rx d0;
  let before = Gc.minor_words () in
  !rx d1;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated" words)
    true (words < 100.0);
  Alcotest.(check int) "delivered" 2 (Qtp.Connection.delivered conn);
  Alcotest.(check int) "skipped" ((1 lsl 20) - 2) (Qtp.Connection.skipped conn)

(* --- goodput as a counter --------------------------------------------- *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A connection keeps no per-delivery state: past its warm-up, a clean
   transfer's live heap stays flat while it delivers some 20,000 more
   segments.  A log of two words per delivery would add 40,000.  The
   warm-up is 20 s: the engine's timer-wheel slots keep their largest
   size, but the frames in flight wait in the links' delay lines, not
   in the wheel, which holds 7 events here, so its slots are 900 words
   at 20 s and 1,004 at 36 s; what moves in the window is the frames
   in flight. *)
let test_heap_flat_while_delivering () =
  let sim, topo = duplex ~loss:0.0 () in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      (Qtp.Connection.config ~initial_rtt:0.2
         (agreed_of (Qtp.Profile.qtp_full ()) (Qtp.Profile.anything ())))
  in
  Engine.Sim.run ~until:20.0 sim;
  let delivered = Qtp.Connection.delivered conn in
  let words = live_words () in
  Engine.Sim.run ~until:45.0 sim;
  let grew = live_words () - words
  and more = Qtp.Connection.delivered conn - delivered in
  Alcotest.(check bool)
    (Printf.sprintf "%d more segments delivered" more)
    true (more >= 15_000);
  Alcotest.(check bool)
    (Printf.sprintf "live heap moved %d words" grew)
    true
    (abs grew < 2_000)

(* The totals the benchmark reads: [goodput]'s one sample is the
   delivered count times the payload, and a tap installed before the
   run records the same bytes, one sample per delivery. *)
let check_goodput_totals ~label ?(until = 10.0) ~loss offer responder =
  let sim, topo = duplex ~loss () in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      (Qtp.Connection.config ~initial_rtt:0.2 (agreed_of offer responder))
  in
  let tap = Experiments.Common.tap_goodput ~sim conn in
  Engine.Sim.run ~until sim;
  let delivered = Qtp.Connection.delivered conn in
  let total = Stats.Series.total_bytes (Qtp.Connection.goodput conn) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d delivered" label delivered)
    true (delivered > 100);
  Alcotest.(check int)
    (label ^ ": goodput = delivered x payload")
    (delivered * Qtp.Vtp_wire.payload)
    total;
  Alcotest.(check int) (label ^ ": tap total") total
    (Stats.Series.total_bytes tap);
  Alcotest.(check int) (label ^ ": tap count") delivered
    (Stats.Series.count tap);
  conn

let test_goodput_totals () =
  ignore
    (check_goodput_totals ~label:"standard" ~loss:0.02
       (Qtp.Profile.qtp_full ()) (Qtp.Profile.anything ()));
  ignore
    (check_goodput_totals ~label:"light" ~loss:0.02
       (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_full ] ())
       (Qtp.Profile.mobile_receiver ()));
  let partial =
    check_goodput_totals ~label:"partial" ~until:20.0 ~loss:0.3
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_partial ] ())
      (Qtp.Profile.mobile_receiver ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "partial: %d skipped" (Qtp.Connection.skipped partial))
    true
    (Qtp.Connection.skipped partial > 0)

let suite =
  [
    Alcotest.test_case "clean path fills link" `Quick test_clean_path_fills_link;
    Alcotest.test_case "loss throttles" `Quick test_loss_throttles;
    Alcotest.test_case "full reliability (std plane)" `Quick
      test_full_reliability_delivers_all;
    Alcotest.test_case "full reliability (light plane)" `Quick
      test_light_full_reliability_delivers_all;
    Alcotest.test_case "unreliable skips" `Quick test_unreliable_skips_losses;
    Alcotest.test_case "light plane loss estimate" `Quick
      test_light_plane_estimates_loss;
    Alcotest.test_case "delivery delays" `Quick test_delivery_delays_recorded;
    Alcotest.test_case "delay probe under partial reliability" `Quick
      test_delay_probe_partial_reliability;
    Alcotest.test_case "gTFRC floor" `Quick
      test_gtfrc_target_respected_under_loss;
    Alcotest.test_case "cbr source limit" `Quick test_cbr_source_limits_rate;
    Alcotest.test_case "handshake establishes" `Quick
      test_negotiated_handshake_establishes;
    Alcotest.test_case "negotiation failure clean" `Quick
      test_negotiation_failure_is_clean;
    Alcotest.test_case "feedback on both planes" `Quick
      test_feedback_flows_both_planes;
    Alcotest.test_case "far forward point is cheap" `Quick
      test_far_forward_point_is_cheap;
    Alcotest.test_case "heap flat while delivering" `Quick
      test_heap_flat_while_delivering;
    Alcotest.test_case "goodput totals" `Quick test_goodput_totals;
  ]
