(* Tfrc.Sender + Tfrc.Receiver wired directly (no network): slow start,
   feedback reaction, nofeedback timer, gTFRC floor, idle/wake. *)

let make_pair ?(min_rate_bps = 0.0) ?(loss_every = 0) sim =
  (* Direct wiring with a constant one-way delay of 10 ms each way. *)
  let owd = 0.01 in
  let params =
    {
      Tfrc.Sender.default_params with
      packet_size = 1000;
      initial_rtt = 0.1;
      min_rate_bps;
      (* Direct wiring has no physical link: cap the rate so lossless
         slow start cannot double into an event flood. *)
      max_rate_bps = Some 1e8;
    }
  in
  let sender_ref = ref None in
  let receiver_ref = ref None in
  let send_feedback (fb : Packet.Header.feedback) =
    ignore
      (Engine.Sim.schedule_after sim owd (fun () ->
           match !sender_ref with
           | Some snd ->
               Tfrc.Sender.on_feedback snd ~tstamp_echo:fb.tstamp_echo
                 ~t_delay:fb.t_delay ~x_recv:fb.x_recv ~p:fb.p
           | None -> ()))
  in
  let receiver = Tfrc.Receiver.create ~sim ~send_feedback () in
  receiver_ref := Some receiver;
  let seq = ref 0 in
  let sent = ref 0 in
  let transmit () =
    incr sent;
    let this = !seq in
    incr seq;
    let lost = loss_every > 0 && this mod loss_every = loss_every - 1 in
    if not lost then begin
      let snd = Option.get !sender_ref in
      let d =
        {
          Packet.Header.seq = Packet.Serial.of_int this;
          tstamp = Engine.Sim.now sim;
          rtt_estimate = Tfrc.Sender.rtt snd;
          is_retransmit = false;
          fwd_point = Packet.Serial.of_int this;
        }
      in
      ignore
        (Engine.Sim.schedule_after sim owd (fun () ->
             Tfrc.Receiver.on_data receiver ~ce:false d ~size:1000))
    end;
    true
  in
  let sender = Tfrc.Sender.create ~sim params ~on_transmit:transmit () in
  sender_ref := Some sender;
  (sender, receiver, sent)

let test_slow_start_doubles () =
  let sim = Engine.Sim.create () in
  let sender, _, _ = make_pair sim in
  let r0 = Tfrc.Sender.rate_bps sender in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:3.0 sim;
  Alcotest.(check bool) "still in slow start (no loss)" true
    (Tfrc.Sender.in_slow_start sender);
  Alcotest.(check bool) "rate grew a lot" true
    (Tfrc.Sender.rate_bps sender > 10.0 *. r0)

let test_loss_leaves_slow_start () =
  let sim = Engine.Sim.create () in
  let sender, receiver, _ = make_pair ~loss_every:50 sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:20.0 sim;
  Alcotest.(check bool) "left slow start" false
    (Tfrc.Sender.in_slow_start sender);
  Alcotest.(check bool) "receiver saw loss events" true
    (Tfrc.Receiver.loss_events receiver > 0);
  (* Equation-governed rate with p ~ 2%: sanity corridor. *)
  let p = Tfrc.Receiver.loss_event_rate receiver in
  Alcotest.(check bool)
    (Printf.sprintf "p %f plausible" p)
    true
    (p > 0.003 && p < 0.08)

let test_rtt_measured () =
  let sim = Engine.Sim.create () in
  let sender, _, _ = make_pair sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:3.0 sim;
  Alcotest.(check bool) "rtt sampled" true (Tfrc.Sender.has_rtt_sample sender);
  (* True RTT is 20 ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "rtt %f ~ 0.02" (Tfrc.Sender.rtt sender))
    true
    (Float.abs (Tfrc.Sender.rtt sender -. 0.02) < 0.01)

let test_nofeedback_halves () =
  let sim = Engine.Sim.create () in
  let params =
    { Tfrc.Sender.default_params with packet_size = 1000; initial_rtt = 0.1 }
  in
  (* Transmit into the void: no receiver, no feedback. *)
  let sender = Tfrc.Sender.create ~sim params ~on_transmit:(fun () -> true) () in
  Tfrc.Sender.start sender;
  let r0 = Tfrc.Sender.rate_bps sender in
  Engine.Sim.run ~until:10.0 sim;
  Alcotest.(check bool) "nofeedback fired" true
    (Tfrc.Sender.nofeedback_expiries sender > 1);
  Alcotest.(check bool) "rate collapsed" true
    (Tfrc.Sender.rate_bps sender < r0)

let test_gtfrc_floor_respected () =
  let sim = Engine.Sim.create () in
  let floor = 2.0e6 in
  let sender, _, _ = make_pair ~min_rate_bps:floor ~loss_every:10 sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:20.0 sim;
  (* Heavy loss (10%) would push TFRC way below 2 Mb/s; gTFRC must not. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate %f >= floor" (Tfrc.Sender.rate_bps sender))
    true
    (Tfrc.Sender.rate_bps sender >= floor -. 1.0)

let test_no_floor_collapses () =
  let sim = Engine.Sim.create () in
  let sender, _, _ = make_pair ~loss_every:10 sim in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:20.0 sim;
  Alcotest.(check bool) "pure TFRC sinks below 2 Mb/s at 10% loss" true
    (Tfrc.Sender.rate_bps sender < 2.0e6)

let test_idle_and_wake () =
  let sim = Engine.Sim.create () in
  let available = ref true in
  let sent = ref 0 in
  let params =
    { Tfrc.Sender.default_params with packet_size = 1000; initial_rtt = 0.1 }
  in
  let sender =
    Tfrc.Sender.create ~sim params
      ~on_transmit:(fun () ->
        if !available then begin
          incr sent;
          true
        end
        else false)
      ()
  in
  Tfrc.Sender.start sender;
  ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> available := false));
  ignore
    (Engine.Sim.schedule_at sim 5.0 (fun () ->
         available := true;
         Tfrc.Sender.notify_data sender));
  Engine.Sim.run ~until:6.0 sim;
  let sent_at_1 = !sent in
  ignore sent_at_1;
  Alcotest.(check bool) "kept sending after wake" true (!sent > 0);
  (* Verify nothing was sent while idle: count between t=1.2 and t=5. *)
  let sim2 = Engine.Sim.create () in
  let sent2 = ref 0 in
  let avail2 = ref true in
  let sender2 =
    Tfrc.Sender.create ~sim:sim2 params
      ~on_transmit:(fun () ->
        if !avail2 then begin
          incr sent2;
          true
        end
        else false)
      ()
  in
  Tfrc.Sender.start sender2;
  ignore (Engine.Sim.schedule_at sim2 1.0 (fun () -> avail2 := false));
  Engine.Sim.run ~until:1.5 sim2;
  let mark = !sent2 in
  Engine.Sim.run ~until:5.0 sim2;
  Alcotest.(check int) "idle means silent" mark !sent2

let test_stop () =
  let sim = Engine.Sim.create () in
  let sender, _, sent = make_pair sim in
  Tfrc.Sender.start sender;
  ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> Tfrc.Sender.stop sender));
  Engine.Sim.run ~until:2.0 sim;
  let at_stop = !sent in
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check int) "no sends after stop" at_stop !sent

(* Minor words per call of [f], averaged over [n] calls after [n]
   warm-up calls.  Arguments are built before measuring, so only the
   call itself is priced. *)
let words_per_call n f =
  for i = 0 to n - 1 do
    f i
  done;
  let w0 = Gc.minor_words () in
  for i = n to (2 * n) - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The rate machine's floats are one flat record, so a feedback writes
   them in place instead of boxing each. *)
let test_feedback_allocation () =
  let sim = Engine.Sim.create () in
  let sender =
    Tfrc.Sender.create ~sim Tfrc.Sender.default_params
      ~on_transmit:(fun () -> true)
      ()
  in
  Tfrc.Sender.start sender;
  Engine.Sim.run ~until:1.0 sim;
  let per_call =
    words_per_call 10_000 (fun _ ->
        Tfrc.Sender.on_feedback sender ~tstamp_echo:0.9 ~t_delay:0.01
          ~x_recv:1e5 ~p:0.01)
  in
  if per_call > 16.0 then
    Alcotest.failf "%.2f minor words per on_feedback (at most 16)" per_call

(* A data segment with a CE mark: [~ce] is a plain bool, not an
   optional argument boxed into [Some ce] on every call.  The mark is
   computed, as on the live path: a literal [Some true] is a static
   constant and would hide the box. *)
let test_on_data_allocation () =
  let sim = Engine.Sim.create () in
  let receiver = Tfrc.Receiver.create ~sim ~send_feedback:ignore () in
  let n = 10_000 in
  let data =
    Array.init (2 * n) (fun i ->
        {
          Packet.Header.seq = Packet.Serial.of_int i;
          tstamp = 0.0;
          rtt_estimate = 0.1;
          is_retransmit = false;
          fwd_point = Packet.Serial.of_int i;
        })
  in
  let per_call =
    words_per_call n (fun i ->
        Tfrc.Receiver.on_data receiver ~ce:(i >= 0) data.(i) ~size:1000)
  in
  if per_call > 4.0 then
    Alcotest.failf "%.2f minor words per on_data (at most 4)" per_call

let suite =
  [
    Alcotest.test_case "slow start doubles" `Quick test_slow_start_doubles;
    Alcotest.test_case "loss leaves slow start" `Quick
      test_loss_leaves_slow_start;
    Alcotest.test_case "rtt measured" `Quick test_rtt_measured;
    Alcotest.test_case "nofeedback halves" `Quick test_nofeedback_halves;
    Alcotest.test_case "gTFRC floor" `Quick test_gtfrc_floor_respected;
    Alcotest.test_case "no floor collapses" `Quick test_no_floor_collapses;
    Alcotest.test_case "idle and wake" `Quick test_idle_and_wake;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "on_feedback allocates at most 16 words" `Quick
      test_feedback_allocation;
    Alcotest.test_case "on_data ~ce allocates at most 4 words" `Quick
      test_on_data_allocation;
  ]
