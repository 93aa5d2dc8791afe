(* Qtp.Loss_reconstructor: sender-side rebuild of the loss history. *)

module LR = Qtp.Loss_reconstructor
module S = Packet.Serial

let cover ?(retx = false) ?(gap = 0.001) i =
  {
    Scoreboard_lists.cov_seq = S.of_int i;
    cov_sent_at = float_of_int i *. gap;
    cov_was_retx = retx;
  }

let rtt = 0.05

(* One feedback's worth of covers, as the connection replays them. *)
let feed lr covers =
  let batch = LR.begin_batch lr in
  List.iter
    (fun (c : Scoreboard_lists.cover) ->
      LR.push_cover lr ~seq:c.cov_seq ~sent_at:c.cov_sent_at
        ~was_retx:c.cov_was_retx ~rtt ~x_recv:1.0e6)
    covers;
  LR.end_batch lr batch

let test_no_loss () =
  let lr = LR.create () in
  feed lr (List.init 100 cover);
  Alcotest.(check int) "no events" 0 (LR.loss_events lr);
  Alcotest.(check (float 0.0)) "p=0" 0.0 (LR.loss_event_rate lr)

let test_hole_detected () =
  let lr = LR.create () in
  (* 50 never covered. *)
  let covers = List.init 100 (fun i -> if i < 50 then i else i + 1) in
  feed lr (List.map cover covers);
  Alcotest.(check int) "one event" 1 (LR.loss_events lr);
  Alcotest.(check bool) "p > 0" true (LR.loss_event_rate lr > 0.0)

let test_first_interval_seeded () =
  let lr = LR.create () in
  let covers = List.init 100 (fun i -> if i < 50 then i else i + 1) in
  feed lr (List.map cover covers);
  (* The seed interval (from x_recv) plus rate > 0 means p is moderate,
     not 1/open-interval. *)
  let p = LR.loss_event_rate lr in
  Alcotest.(check bool)
    (Printf.sprintf "p %f reasonable" p)
    true
    (p > 1e-5 && p < 0.5)

let test_retransmitted_covers_excluded () =
  let lr = LR.create () in
  feed lr (List.init 50 cover);
  feed lr [ cover ~retx:true 50 ];
  feed lr (List.init 50 (fun i -> cover (51 + i)));
  (* 50 was a repaired retransmission: it must not appear as a fresh
     arrival, but neither is it a hole (we just never count it). *)
  Alcotest.(check int) "history only counts originals" 100
    (Tfrc.Loss_history.packets_seen (LR.history lr))

let test_batched_covers_equal_unbatched () =
  let covers = List.init 500 (fun i -> if i mod 50 = 49 then None else Some i) in
  let all = List.filter_map (fun x -> Option.map cover x) covers in
  let one_shot = LR.create () in
  feed one_shot all;
  let batched = LR.create () in
  let rec chunks n = function
    | [] -> []
    | l ->
        let take = List.filteri (fun i _ -> i < n) l in
        let rest = List.filteri (fun i _ -> i >= n) l in
        take :: chunks n rest
  in
  List.iter (feed batched) (chunks 37 all);
  Alcotest.(check (float 1e-9)) "batching invariant"
    (LR.loss_event_rate one_shot)
    (LR.loss_event_rate batched)

let test_matches_receiver_side () =
  (* The E6 property as a unit test: identical loss pattern, equal p. *)
  let n = 5000 in
  let rng = Engine.Rng.create ~seed:91 in
  let pattern = Array.init n (fun _ -> not (Engine.Rng.chance rng 0.02)) in
  let lh = Tfrc.Loss_history.create () in
  Array.iteri
    (fun i alive ->
      if alive then
        Tfrc.Loss_history.on_packet lh ~seq:(S.of_int i)
          ~arrival:((float_of_int i *. 0.001) +. rtt)
          ~rtt ~is_retx:false)
    pattern;
  let lr = LR.create () in
  let covers = ref [] in
  Array.iteri (fun i alive -> if alive then covers := cover i :: !covers) pattern;
  feed lr (List.rev !covers);
  let p_r = Tfrc.Loss_history.loss_event_rate lh in
  let p_s = LR.loss_event_rate lr in
  Alcotest.(check bool)
    (Printf.sprintf "sender %f ~ receiver %f" p_s p_r)
    true
    (p_r > 0.0 && Float.abs (p_s -. p_r) /. p_r < 0.05)

(* The paper's central claim as a differential property: for a random
   loss pattern, the full RFC 3448 receiver (driven through the event
   loop, feedback timers and all) and the QTP_light sender-side
   reconstruction (fed the same pattern as SACK cover reports, one
   batch per RTT) must agree on the loss-event rate.  Tolerance covers
   the one legitimate divergence — the synthetic first interval, which
   the receiver seeds from its measured x_recv and the reconstructor
   from the reported one. *)
let prop_matches_full_receiver =
  QCheck.Test.make ~name:"reconstruction tracks the full receiver's p"
    ~count:60
    QCheck.(pair (int_range 1 10_000) (int_range 1 12))
    (fun (seed, loss_pct) ->
      let n = 3000 in
      let gap = 0.004 in
      let rng = Engine.Rng.create ~seed in
      let alive =
        Array.init n (fun _ ->
            not (Engine.Rng.chance rng (float_of_int loss_pct /. 100.0)))
      in
      (* Receiver side: arrivals scheduled on a real sim clock. *)
      let sim = Engine.Sim.create ~seed:1 () in
      let rcv =
        Tfrc.Receiver.create ~sim ~send_feedback:(fun _ -> ()) ()
      in
      Array.iteri
        (fun i ok ->
          if ok then
            Engine.Sim.post_at sim
              (rtt +. (float_of_int i *. gap))
              (fun () ->
                Tfrc.Receiver.on_data rcv ~ce:false
                  {
                    Packet.Header.seq = S.of_int i;
                    tstamp = float_of_int i *. gap;
                    rtt_estimate = rtt;
                    is_retransmit = false;
                    fwd_point = S.zero;
                  }
                  ~size:1500))
        alive;
      (* The receiver's feedback timer re-arms itself forever, so the
         run must be time-bounded. *)
      Engine.Sim.run ~until:(rtt +. (float_of_int n *. gap) +. 1.0) sim;
      (* Sender side: the same pattern as covers, one batch per RTT. *)
      let lr = LR.create () in
      let batch = ref [] in
      Array.iteri
        (fun i ok ->
          if ok then batch := cover ~gap i :: !batch;
          if (i + 1) mod 12 = 0 || i = n - 1 then begin
            feed lr (List.rev !batch);
            batch := []
          end)
        alive;
      let p_r = Tfrc.Receiver.loss_event_rate rcv in
      let p_s = LR.loss_event_rate lr in
      if p_r = 0.0 then p_s = 0.0
      else Float.abs (p_s -. p_r) /. p_r < 0.1)

(* The virtual-arrival clock is a flat float record, so a replayed
   cover writes it in place.  Constant arguments, so only the call is
   priced: minor words per call over 10k calls after as many warm-up
   calls. *)
let test_push_cover_allocation () =
  let lr = LR.create () in
  let n = 10_000 in
  let batch = LR.begin_batch lr in
  let push i =
    LR.push_cover lr ~seq:(S.of_int i) ~sent_at:1.0 ~was_retx:false ~rtt
      ~x_recv:1.0e6
  in
  for i = 0 to n - 1 do
    push i
  done;
  let w0 = Gc.minor_words () in
  for i = n to (2 * n) - 1 do
    push i
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  LR.end_batch lr batch;
  if per_call > 4.0 then
    Alcotest.failf "%.2f minor words per push_cover (at most 4)" per_call

(* A receiver's CE count is 4 bytes of untrusted input.  The marks of
   one report share a position, arrival and RTT, so after the first the
   rest only count: a 2^28-mark claim takes well under 0.1 s of CPU,
   counts every mark and opens one congestion event. *)
let test_ce_claim_is_constant_time () =
  let lr = LR.create () in
  feed lr (List.init 10 cover);
  let t0 = Sys.time () in
  LR.on_ce_marks lr ~new_marks:(1 lsl 28) ~rtt ~x_recv:1.0e6;
  let took = Sys.time () -. t0 in
  if took >= 0.1 then Alcotest.failf "2^28 marks took %.3f s of CPU" took;
  Alcotest.(check int) "marks counted" (1 lsl 28)
    (Tfrc.Loss_history.congestion_marks (LR.history lr));
  Alcotest.(check int) "one event" 1 (LR.loss_events lr)

let suite =
  [
    Alcotest.test_case "no loss" `Quick test_no_loss;
    Alcotest.test_case "hole detected" `Quick test_hole_detected;
    Alcotest.test_case "first interval seeded" `Quick
      test_first_interval_seeded;
    Alcotest.test_case "retx covers excluded" `Quick
      test_retransmitted_covers_excluded;
    Alcotest.test_case "batching invariant" `Quick
      test_batched_covers_equal_unbatched;
    Alcotest.test_case "matches receiver side" `Quick test_matches_receiver_side;
    Alcotest.test_case "push_cover allocates at most 4 words" `Quick
      test_push_cover_allocation;
    Alcotest.test_case "CE claim is constant time" `Quick
      test_ce_claim_is_constant_time;
    QCheck_alcotest.to_alcotest prop_matches_full_receiver;
  ]
