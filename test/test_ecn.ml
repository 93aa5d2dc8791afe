(* ECN: queue marking, loss-history accounting, negotiation, and the
   end-to-end mark-echo-react loop on both feedback planes. *)

let red_params =
  {
    Netsim.Red.min_th = 3.0;
    max_th = 10.0;
    max_p = 0.5;
    w_q = 0.3;
    gentle = true;
    idle_pkt_time = 0.001;
  }

let frame ?(ect = true) uid =
  let f =
    Netsim.Frame.make ~uid ~flow_id:0 ~size:1000 (Netsim.Frame.Raw uid)
  in
  f.Netsim.Frame.ect <- ect;
  f

let test_red_marks_instead_of_dropping () =
  let rng = Engine.Rng.create ~seed:171 in
  let q = Netsim.Qdisc.red ~capacity_pkts:50 ~ecn:true ~params:red_params ~rng () in
  let marked = ref 0 and dropped = ref 0 in
  for i = 1 to 500 do
    let f = frame i in
    if Netsim.Qdisc.enqueue q ~now:(float_of_int i *. 1e-4) f then begin
      if f.Netsim.Frame.ce then incr marked
    end
    else incr dropped;
    if i mod 2 = 0 then ignore (Netsim.Qdisc.dequeue q ~now:(float_of_int i *. 1e-4))
  done;
  Alcotest.(check bool) "marks happened" true (!marked > 10);
  Alcotest.(check int) "stats agree" !marked
    (Netsim.Qdisc.stats q).Netsim.Qdisc.ce_marked

let test_non_ect_still_drops () =
  let rng = Engine.Rng.create ~seed:173 in
  let q = Netsim.Qdisc.red ~capacity_pkts:50 ~ecn:true ~params:red_params ~rng () in
  let marked = ref 0 and dropped = ref 0 in
  for i = 1 to 500 do
    let f = frame ~ect:false i in
    if Netsim.Qdisc.enqueue q ~now:(float_of_int i *. 1e-4) f then begin
      if f.Netsim.Frame.ce then incr marked
    end
    else incr dropped;
    if i mod 2 = 0 then ignore (Netsim.Qdisc.dequeue q ~now:(float_of_int i *. 1e-4))
  done;
  Alcotest.(check int) "never marked" 0 !marked;
  Alcotest.(check bool) "dropped instead" true (!dropped > 10)

let test_loss_history_counts_marks_as_events () =
  let lh = Tfrc.Loss_history.create () in
  let rtt = 0.05 in
  for i = 0 to 199 do
    Tfrc.Loss_history.on_packet lh ~seq:(Packet.Serial.of_int i)
      ~arrival:(float_of_int i *. 0.01)
      ~rtt ~is_retx:false;
    (* CE on packets 50 and 150: 1 s apart, two separate events. *)
    if i = 50 || i = 150 then
      Tfrc.Loss_history.on_congestion_mark lh ~marks:1 ~seq:(Packet.Serial.of_int i)
        ~arrival:(float_of_int i *. 0.01)
        ~rtt
  done;
  Alcotest.(check int) "no packets lost" 0 (Tfrc.Loss_history.losses lh);
  Alcotest.(check int) "two marks" 2 (Tfrc.Loss_history.congestion_marks lh);
  Alcotest.(check int) "two events" 2 (Tfrc.Loss_history.loss_events lh);
  Alcotest.(check bool) "p > 0 without loss" true
    (Tfrc.Loss_history.loss_event_rate lh > 0.0)

let test_marks_group_within_rtt () =
  let lh = Tfrc.Loss_history.create () in
  let rtt = 0.05 in
  for i = 0 to 9 do
    Tfrc.Loss_history.on_packet lh ~seq:(Packet.Serial.of_int i)
      ~arrival:(float_of_int i *. 0.001)
      ~rtt ~is_retx:false;
    (* every packet marked — all within one RTT *)
    Tfrc.Loss_history.on_congestion_mark lh ~marks:1 ~seq:(Packet.Serial.of_int i)
      ~arrival:(float_of_int i *. 0.001)
      ~rtt
  done;
  Alcotest.(check int) "ten marks" 10 (Tfrc.Loss_history.congestion_marks lh);
  Alcotest.(check int) "one event" 1 (Tfrc.Loss_history.loss_events lh)

let test_negotiation_requires_both () =
  let both =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_light ~ecn:true ())
      (Qtp.Profile.mobile_receiver ())
  in
  Alcotest.(check bool) "both willing -> on" true both.Qtp.Capabilities.use_ecn;
  let one =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_light ~ecn:false ())
      (Qtp.Profile.mobile_receiver ())
  in
  Alcotest.(check bool) "one unwilling -> off" false
    one.Qtp.Capabilities.use_ecn

let run_ecn_conn ~light ~ecn =
  let sim = Engine.Sim.create ~seed:177 () in
  let rng = Engine.Sim.split_rng sim in
  let forward =
    Netsim.Topology.spec ~rate_bps:10e6 ~delay:0.04
      ~qdisc:(fun () ->
        Netsim.Qdisc.red ~capacity_pkts:60 ~ecn:true
          ~params:
            {
              Netsim.Red.min_th = 8.0;
              max_th = 25.0;
              max_p = 0.1;
              w_q = 0.002;
              gentle = true;
              idle_pkt_time = 0.0012;
            }
          ~rng:(Engine.Rng.split rng) ())
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  let offer =
    if light then
      Qtp.Profile.qtp_light ~ecn ~reliability:[ Qtp.Capabilities.R_none ] ()
    else Qtp.Profile.qtp_tfrc ~ecn ()
  in
  let responder =
    if light then Qtp.Profile.mobile_receiver () else Qtp.Profile.anything ()
  in
  let agreed = Qtp.Profile.agreed_exn offer responder in
  let endpoint, arrivals =
    Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Engine.Sim.run ~until:20.0 sim;
  let st = Netsim.Qdisc.stats (Netsim.Link.qdisc topo.Netsim.Topology.bottleneck) in
  (conn, arrivals, st)

let test_e2e_std_plane_reacts_to_marks () =
  let conn, arrivals, st = run_ecn_conn ~light:false ~ecn:true in
  Alcotest.(check bool) "marks happened" true (st.Netsim.Qdisc.ce_marked > 10);
  (* The sender's p must be driven by marks (the path loses only via the
     rare hard-limit overflow). *)
  Alcotest.(check bool) "sender reacts" true
    (Qtp.Connection.sender_loss_estimate conn > 0.0001);
  (* And the rate must stay below the link (i.e. it is not blasting). *)
  let rate = Stats.Series.rate_bps arrivals ~from_:5.0 ~until:20.0 in
  Alcotest.(check bool) "rate sane" true (rate < 10.5e6)

let test_e2e_light_plane_echoes_marks () =
  let conn, _, st = run_ecn_conn ~light:true ~ecn:true in
  Alcotest.(check bool) "marks happened" true (st.Netsim.Qdisc.ce_marked > 10);
  Alcotest.(check bool) "sender-side p from CE echo" true
    (Qtp.Connection.sender_loss_estimate conn > 0.0001)

let test_e2e_without_negotiation_no_marks () =
  (* ECN-capable queue, but the endpoints did not negotiate it: frames
     go out without ECT, so the queue drops instead. *)
  let _, _, st = run_ecn_conn ~light:true ~ecn:false in
  Alcotest.(check int) "no marks" 0 st.Netsim.Qdisc.ce_marked;
  Alcotest.(check bool) "drops instead" true (st.Netsim.Qdisc.dropped > 0)

let suite =
  [
    Alcotest.test_case "red marks ECT" `Quick test_red_marks_instead_of_dropping;
    Alcotest.test_case "non-ECT drops" `Quick test_non_ect_still_drops;
    Alcotest.test_case "marks are events" `Quick
      test_loss_history_counts_marks_as_events;
    Alcotest.test_case "marks group within RTT" `Quick
      test_marks_group_within_rtt;
    Alcotest.test_case "negotiation requires both" `Quick
      test_negotiation_requires_both;
    Alcotest.test_case "e2e std plane" `Quick test_e2e_std_plane_reacts_to_marks;
    Alcotest.test_case "e2e light plane" `Quick
      test_e2e_light_plane_echoes_marks;
    Alcotest.test_case "e2e off without negotiation" `Quick
      test_e2e_without_negotiation_no_marks;
  ]
