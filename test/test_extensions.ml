(* Extension features: oscillation damping (§4.5) and handshake
   retransmission under loss. *)

let test_damping_slows_on_rtt_rise () =
  let sim = Engine.Sim.create () in
  let params =
    {
      Tfrc.Sender.default_params with
      packet_size = 1000;
      initial_rtt = 0.1;
      oscillation_damping = true;
      max_rate_bps = Some 1e8;
    }
  in
  let sender = Tfrc.Sender.create ~sim params ~on_transmit:(fun () -> true) () in
  Tfrc.Sender.start sender;
  (* Feed two feedbacks: a baseline RTT then a 4x larger sample.  The
     instantaneous rate must dip below the allowed rate by ~sqrt(4)/…
     (R_sqmean lags, sqrt(R_sample) jumps). *)
  ignore
    (Engine.Sim.schedule_at sim 0.1 (fun () ->
         Tfrc.Sender.on_feedback sender ~tstamp_echo:0.0 ~t_delay:0.0
           ~x_recv:1e6 ~p:0.01));
  ignore
    (Engine.Sim.schedule_at sim 0.9 (fun () ->
         Tfrc.Sender.on_feedback sender ~tstamp_echo:0.5 ~t_delay:0.0
           ~x_recv:1e6 ~p:0.01));
  Engine.Sim.run ~until:1.0 sim;
  let allowed = Tfrc.Sender.rate_bps sender in
  let inst = Tfrc.Sender.instantaneous_rate_bps sender in
  Alcotest.(check bool)
    (Printf.sprintf "instantaneous %.0f < allowed %.0f" inst allowed)
    true (inst < allowed *. 0.95)

let test_damping_off_means_equal () =
  let sim = Engine.Sim.create () in
  let params =
    { Tfrc.Sender.default_params with packet_size = 1000; initial_rtt = 0.1 }
  in
  let sender = Tfrc.Sender.create ~sim params ~on_transmit:(fun () -> true) () in
  Tfrc.Sender.start sender;
  ignore
    (Engine.Sim.schedule_at sim 0.1 (fun () ->
         Tfrc.Sender.on_feedback sender ~tstamp_echo:0.0 ~t_delay:0.0
           ~x_recv:1e6 ~p:0.01));
  Engine.Sim.run ~until:0.5 sim;
  Alcotest.(check (float 1e-6)) "identical without damping"
    (Tfrc.Sender.rate_bps sender)
    (Tfrc.Sender.instantaneous_rate_bps sender)

(* The ceiling bounds the damped rate too.  An RTT sample of 1e-9 s
   after one of 0.1 s scales X by R_sqmean / sqrt(R_sample), about
   9,000 here: without the cap the sender spaces packets at hundreds of
   Mb/s under a 1 Mb/s ceiling. *)
let test_damping_respects_ceiling () =
  let sim = Engine.Sim.create () in
  let ceiling = 1e6 in
  let params =
    {
      Tfrc.Sender.default_params with
      packet_size = 1000;
      initial_rtt = 0.1;
      oscillation_damping = true;
      max_rate_bps = Some ceiling;
    }
  in
  let sender = Tfrc.Sender.create ~sim params ~on_transmit:(fun () -> true) () in
  Tfrc.Sender.start sender;
  Engine.Sim.post_at sim 0.1 (fun () ->
      Tfrc.Sender.on_feedback sender ~tstamp_echo:0.0 ~t_delay:0.0 ~x_recv:1e6
        ~p:0.01);
  Engine.Sim.post_at sim 0.2 (fun () ->
      Tfrc.Sender.on_feedback sender ~tstamp_echo:0.1 ~t_delay:(0.1 -. 1e-9)
        ~x_recv:1e6 ~p:0.01);
  Engine.Sim.run ~until:0.3 sim;
  let allowed = Tfrc.Sender.rate_bps sender in
  let inst = Tfrc.Sender.instantaneous_rate_bps sender in
  Alcotest.(check bool)
    (Printf.sprintf "allowed %.0f within the ceiling" allowed)
    true (allowed <= ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "instantaneous %.0f within the ceiling" inst)
    true (inst <= ceiling)

let lossy_nego ~seed ~loss =
  let sim, topo =
    Experiments.Common.lossy_path ~seed ~rate_mbps:10.0
      ~loss:(Experiments.Common.bernoulli loss)
      ()
  in
  let conn =
    Qtp.Connection.create_negotiated ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~initial_rtt:0.2
      ~initiator:(Qtp.Profile.qtp_light ())
      ~responder:(Qtp.Profile.mobile_receiver ())
      ()
  in
  (sim, conn)

let test_handshake_survives_loss () =
  (* 30% loss: some SYNs die, the retry timer must get through. *)
  let established = ref 0 in
  for k = 0 to 9 do
    let sim, conn = lossy_nego ~seed:(200 + k) ~loss:0.3 in
    Engine.Sim.run ~until:60.0 sim;
    match Qtp.Connection.state conn with
    | Qtp.Connection.Established _ -> incr established
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/10 established at 30%% loss" !established)
    true (!established >= 8)

let test_handshake_never_hangs () =
  (* Total blackout: must resolve to Failed, not stay Negotiating. *)
  let sim, topo =
    Experiments.Common.lossy_path ~seed:3 ~rate_mbps:10.0
      ~loss:(Experiments.Common.bernoulli 1.0)
      ()
  in
  let conn =
    Qtp.Connection.create_negotiated ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~initial_rtt:0.2
      ~initiator:(Qtp.Profile.qtp_light ())
      ~responder:(Qtp.Profile.mobile_receiver ())
      ()
  in
  Engine.Sim.run ~until:120.0 sim;
  match Qtp.Connection.state conn with
  | Qtp.Connection.Failed _ -> ()
  | Qtp.Connection.Established _ ->
      Alcotest.fail "established through a black hole?"
  | Qtp.Connection.Negotiating | Qtp.Connection.Closing
  | Qtp.Connection.Closed ->
      Alcotest.fail "handshake hung"

let test_duplicate_syn_harmless () =
  (* Clean path but with an eager retry timer: if the first SYN-ACK is
     slow only because of queueing, duplicate SYNs must not corrupt the
     connection.  Emulate with moderate loss so retries overlap. *)
  let sim, conn = lossy_nego ~seed:7 ~loss:0.2 in
  Engine.Sim.run ~until:60.0 sim;
  match Qtp.Connection.state conn with
  | Qtp.Connection.Established _ ->
      Alcotest.(check bool) "data flowed" true (Qtp.Connection.delivered conn > 0)
  | Qtp.Connection.Failed r -> Alcotest.failf "failed: %s" r
  | Qtp.Connection.Negotiating | Qtp.Connection.Closing
  | Qtp.Connection.Closed ->
      Alcotest.fail "stuck"

let suite =
  [
    Alcotest.test_case "damping slows on RTT rise" `Quick
      test_damping_slows_on_rtt_rise;
    Alcotest.test_case "damping off = identity" `Quick
      test_damping_off_means_equal;
    Alcotest.test_case "damping respects the ceiling" `Quick
      test_damping_respects_ceiling;
    Alcotest.test_case "handshake survives 30% loss" `Slow
      test_handshake_survives_loss;
    Alcotest.test_case "handshake never hangs" `Quick
      test_handshake_never_hangs;
    Alcotest.test_case "duplicate SYN harmless" `Quick
      test_duplicate_syn_harmless;
  ]
