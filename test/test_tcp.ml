(* TCP baseline: congestion window dynamics and end-to-end transfer. *)

let duplex ?(rate_bps = 8.0e6) ?(delay = 0.01) ?loss ?(seed = 81) () =
  let sim = Engine.Sim.create ~seed () in
  let rng = Engine.Sim.split_rng sim in
  let forward =
    Netsim.Topology.spec ~rate_bps ~delay
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
      ~loss:(fun () ->
        match loss with
        | Some p -> Netsim.Loss_model.bernoulli ~p ~rng
        | None -> Netsim.Loss_model.none)
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  (sim, Netsim.Topology.endpoint topo 0)

let test_clean_transfer_fills_pipe () =
  let sim, ep = duplex () in
  let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
  Engine.Sim.run ~until:20.0 sim;
  let rate = Tcp.Flow.goodput_bps flow ~from_:5.0 ~until:20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "goodput %f ~ link rate" rate)
    true
    (rate > 0.8 *. 8.0e6);
  Alcotest.(check int) "no timeouts on clean path" 0
    (Tcp.Tcp_sender.timeouts (Tcp.Flow.sender flow))

let test_slow_start_growth () =
  let sim, ep = duplex () in
  let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
  Engine.Sim.run ~until:0.2 sim;
  (* After ~10 RTTs of 20 ms, cwnd must have grown well beyond IW. *)
  Alcotest.(check bool) "cwnd grew" true
    (Tcp.Tcp_sender.cwnd (Tcp.Flow.sender flow) > 8.0)

let test_loss_triggers_fast_retransmit () =
  let sim, ep = duplex ~loss:0.02 () in
  let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
  Engine.Sim.run ~until:20.0 sim;
  let s = Tcp.Flow.sender flow in
  Alcotest.(check bool) "retransmits happened" true
    (Tcp.Tcp_sender.retransmits s > 0);
  Alcotest.(check bool) "mostly without timeouts" true
    (Tcp.Tcp_sender.retransmits s > Tcp.Tcp_sender.timeouts s)

let test_receiver_delivers_everything_in_order () =
  let sim, ep = duplex ~loss:0.05 () in
  let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
  Engine.Sim.run ~until:20.0 sim;
  let sender = Tcp.Flow.sender flow in
  let receiver = Tcp.Flow.receiver flow in
  (* Reliability: the cumulative point equals delivered segments with no
     holes behind it. *)
  let cum = Packet.Serial.to_int (Tcp.Tcp_receiver.cum_ack receiver) in
  Alcotest.(check bool) "progress" true (cum > 100);
  Alcotest.(check bool) "sent covers cum" true
    (Tcp.Tcp_sender.segments_sent sender >= cum)

let test_rto_on_blackout () =
  (* Forward path dies at t=2 (100% loss): the sender must fire RTOs and
     survive (no exception), with backoff growing the RTO. *)
  let sim = Engine.Sim.create ~seed:83 () in
  let dead = ref false in
  let forward =
    Netsim.Topology.spec ~rate_bps:8.0e6 ~delay:0.01
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  let ep = Netsim.Topology.endpoint topo 0 in
  (* Intercept forward traffic to emulate the blackout. *)
  let real_send = ep.Netsim.Topology.to_receiver in
  let ep = { ep with Netsim.Topology.to_receiver = (fun f -> if not !dead then real_send f) } in
  let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
  ignore (Engine.Sim.schedule_at sim 2.0 (fun () -> dead := true));
  Engine.Sim.run ~until:30.0 sim;
  Alcotest.(check bool) "timeouts fired" true
    (Tcp.Tcp_sender.timeouts (Tcp.Flow.sender flow) >= 2);
  Alcotest.(check bool) "rto backed off" true
    (Tcp.Tcp_sender.rto (Tcp.Flow.sender flow) > 0.5)

let test_srtt_estimation () =
  let sim, ep = duplex ~delay:0.05 () in
  let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
  Engine.Sim.run ~until:5.0 sim;
  match Tcp.Tcp_sender.srtt (Tcp.Flow.sender flow) with
  | Some srtt ->
      (* True RTT >= 100 ms (plus queueing). *)
      Alcotest.(check bool)
        (Printf.sprintf "srtt %f >= 0.1" srtt)
        true (srtt >= 0.099)
  | None -> Alcotest.fail "no rtt sample"

let test_one_ack_per_segment () =
  let sim, ep = duplex () in
  let flow = Tcp.Flow.create ~sim ~endpoint:ep () in
  Engine.Sim.run ~until:10.0 sim;
  let r = Tcp.Flow.receiver flow in
  let acks = Tcp.Tcp_receiver.acks_sent r
  and segs = Tcp.Tcp_receiver.segments_received r in
  Alcotest.(check bool)
    (Printf.sprintf "acks (%d) >= segments (%d) - 1" acks segs)
    true
    (acks >= segs - 1)

let suite =
  [
    Alcotest.test_case "one ack per segment" `Quick test_one_ack_per_segment;
    Alcotest.test_case "fills clean pipe" `Quick test_clean_transfer_fills_pipe;
    Alcotest.test_case "slow start growth" `Quick test_slow_start_growth;
    Alcotest.test_case "fast retransmit" `Quick
      test_loss_triggers_fast_retransmit;
    Alcotest.test_case "in-order delivery" `Quick
      test_receiver_delivers_everything_in_order;
    Alcotest.test_case "rto on blackout" `Quick test_rto_on_blackout;
    Alcotest.test_case "srtt estimation" `Quick test_srtt_estimation;
  ]
