(* Sack.Reliability: policy-driven retransmission decisions and forward
   points. *)

module SB = Scoreboard_lists
module RL = Sack.Reliability
module S = Packet.Serial

let blk a b = { Packet.Header.block_start = S.of_int a; block_end = S.of_int b }

let setup policy =
  let sb = SB.create () in
  let rl = RL.create policy ~scoreboard:sb () in
  (sb, rl)

let send_n sb n =
  for i = 0 to n - 1 do
    SB.on_send sb ~seq:(S.of_int i)
      ~now:(float_of_int i *. 0.001)
      ~size:1000 ~is_retx:false
  done

let infer_loss sb =
  (* Make 0 lost via SACK of 1..5. *)
  let r = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 6 ] in
  r.SB.newly_lost

let test_full_retransmits () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  (match RL.next_decision rl ~now:0.02 with
  | RL.Retransmit s -> Alcotest.(check int) "retransmit 0" 0 (S.to_int s)
  | RL.Fresh_data -> Alcotest.fail "expected retransmit");
  (* Honour it; queue must then be empty. *)
  SB.on_send sb ~seq:(S.of_int 0) ~now:0.02 ~size:1000 ~is_retx:true;
  match RL.next_decision rl ~now:0.03 with
  | RL.Fresh_data -> ()
  | RL.Retransmit _ -> Alcotest.fail "queue should be drained"

let test_unreliable_abandons () =
  let sb, rl = setup RL.Unreliable in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  Alcotest.(check int) "abandoned immediately" 1 (RL.abandoned rl);
  (match RL.next_decision rl ~now:0.02 with
  | RL.Fresh_data -> ()
  | RL.Retransmit _ -> Alcotest.fail "unreliable never retransmits");
  (* Forward point passes the abandoned hole and the sacked run. *)
  let fwd = RL.fwd_point rl ~highest_sent:(SB.next_seq sb) in
  Alcotest.(check int) "fwd past hole and sacked" 6 (S.to_int fwd)

let test_partial_respects_max_retx () =
  let sb, rl = setup (RL.Partial { max_retx = 1; deadline = 100.0 }) in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  (match RL.next_decision rl ~now:0.02 with
  | RL.Retransmit s ->
      SB.on_send sb ~seq:s ~now:0.02 ~size:1000 ~is_retx:true
  | RL.Fresh_data -> Alcotest.fail "first retransmit allowed");
  (* The retransmission is lost too. *)
  ignore (SB.mark_expired sb ~now:10.0 ~timeout:1.0);
  RL.on_losses rl ~now:10.0 [ S.of_int 0 ];
  (match RL.next_decision rl ~now:10.0 with
  | RL.Fresh_data -> Alcotest.(check int) "gave up" 1 (RL.abandoned rl)
  | RL.Retransmit _ -> Alcotest.fail "max_retx exceeded")

let test_partial_respects_deadline () =
  let sb, rl = setup (RL.Partial { max_retx = 10; deadline = 0.5 }) in
  send_n sb 6;
  (* Loss detected late: the segment (sent at ~0) is already past its
     deadline when the opportunity arises. *)
  RL.on_losses rl ~now:1.0 (infer_loss sb);
  match RL.next_decision rl ~now:1.0 with
  | RL.Fresh_data -> Alcotest.(check int) "abandoned by deadline" 1 (RL.abandoned rl)
  | RL.Retransmit _ -> Alcotest.fail "deadline exceeded"

let test_stale_queue_entries_skipped () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  RL.on_losses rl ~now:0.01 (infer_loss sb);
  (* The hole heals (late arrival -> cum advance) before the sender acts. *)
  ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 6) ~blocks:[]);
  match RL.next_decision rl ~now:0.02 with
  | RL.Fresh_data -> ()
  | RL.Retransmit _ -> Alcotest.fail "acked seq must not be retransmitted"

let test_duplicate_loss_reports_queued_once () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  let lost = infer_loss sb in
  RL.on_losses rl ~now:0.01 lost;
  RL.on_losses rl ~now:0.02 lost;
  Alcotest.(check int) "queued once" 1 (RL.retransmissions_queued rl)

let test_full_fwd_point_is_una () =
  let sb, rl = setup RL.Full in
  send_n sb 6;
  ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 2) ~blocks:[ blk 4 6 ]);
  (* Hole at 2..3 not abandoned under Full: receiver must wait. *)
  let fwd = RL.fwd_point rl ~highest_sent:(SB.next_seq sb) in
  Alcotest.(check int) "fwd = una" 2 (S.to_int fwd)

(* A long partial-reliability transfer over a channel that loses one
   packet in three, into a real receive tracker (lossy enough that
   thousands of numbers are abandoned even though each repair goes out
   once): every abandoned number the engine remembers must
   lie at or above [una] after each forward-point step (the sender
   advertises one per packet), and the set must stay within the window
   however many numbers were abandoned. *)
let test_abandoned_set_trimmed () =
  let sb, rl = setup (RL.Partial { max_retx = 1; deadline = 0.08 }) in
  let tr = Sack.Rcv_tracker.create ~deliver:ignore () in
  let rng = Engine.Rng.create ~seed:11 in
  (* A 30-step one-way path: (arrival step, seq, forward point). *)
  let path = Queue.create () in
  let worst = ref 0 in
  for step = 1 to 20_000 do
    let now = float_of_int step *. 0.001 in
    let seq =
      match RL.next_decision rl ~now with
      | RL.Retransmit s ->
          SB.on_send sb ~seq:s ~now ~size:1000 ~is_retx:true;
          s
      | RL.Fresh_data ->
          let s = SB.next_seq sb in
          SB.on_send sb ~seq:s ~now ~size:1000 ~is_retx:false;
          s
    in
    let fwd = RL.fwd_point rl ~highest_sent:(SB.next_seq sb) in
    let una = SB.una sb in
    let held = RL.abandoned_held rl in
    if List.exists (fun s -> S.( < ) s una) held then
      Alcotest.failf "step %d: abandoned entry below una %d" step (S.to_int una);
    if List.length held > SB.outstanding sb then
      Alcotest.failf "step %d: %d abandoned held, window %d" step
        (List.length held) (SB.outstanding sb);
    worst := Stdlib.max !worst (List.length held);
    if Engine.Rng.int rng 3 > 0 then Queue.add (step + 30, seq, fwd) path;
    while
      (not (Queue.is_empty path))
      &&
      let at, _, _ = Queue.peek path in
      at <= step
    do
      let _, s, f = Queue.pop path in
      Sack.Rcv_tracker.apply_fwd_point tr f;
      Sack.Rcv_tracker.on_data tr ~seq:s
    done;
    if step mod 4 = 0 then begin
      let r =
        SB.on_feedback sb ~reo_wnd:0.0
          ~cum_ack:(Sack.Rcv_tracker.cum_ack tr)
          ~blocks:(Sack.Rcv_tracker.sack_blocks tr)
      in
      RL.on_losses rl ~now r.SB.newly_lost;
      RL.on_losses rl ~now (SB.mark_expired sb ~now ~timeout:0.1)
    end
  done;
  Alcotest.(check bool) "thousands abandoned" true (RL.abandoned rl > 1000);
  Alcotest.(check bool) "held set stayed small" true (!worst < 50)

(* An abandoned number above a live hole is remembered (the forward
   point must wait at the hole, then skip it) and forgotten once the
   forward point passes it. *)
let test_abandoned_above_live_hole () =
  let sb, rl = setup (RL.Partial { max_retx = 5; deadline = 0.5 }) in
  send_n sb 10;
  let r = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 2 3; blk 4 10 ] in
  RL.on_losses rl ~now:0.1 r.SB.newly_lost;
  (match RL.next_decision rl ~now:0.1 with
  | RL.Retransmit s ->
      Alcotest.(check int) "hole 0 repaired first" 0 (S.to_int s);
      SB.on_send sb ~seq:s ~now:0.1 ~size:1000 ~is_retx:true
  | RL.Fresh_data -> Alcotest.fail "expected a retransmission");
  (* Past the deadline by the next opportunity: 1 and 3 are abandoned. *)
  (match RL.next_decision rl ~now:1.0 with
  | RL.Fresh_data -> ()
  | RL.Retransmit _ -> Alcotest.fail "1 and 3 are past their deadline");
  Alcotest.(check int) "fwd waits at the live hole" 0
    (S.to_int (RL.fwd_point rl ~highest_sent:(SB.next_seq sb)));
  Alcotest.(check (list int)) "held above it" [ 1; 3 ]
    (List.map S.to_int (RL.abandoned_held rl));
  ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 1) ~blocks:[]);
  Alcotest.(check int) "fwd skips both once 0 is acked" 10
    (S.to_int (RL.fwd_point rl ~highest_sent:(SB.next_seq sb)));
  Alcotest.(check (list int)) "and forgets them" []
    (List.map S.to_int (RL.abandoned_held rl))

let test_policy_pp () =
  Alcotest.(check string) "pp full" "full"
    (Format.asprintf "%a" RL.pp_policy RL.Full);
  Alcotest.(check string) "pp unreliable" "unreliable"
    (Format.asprintf "%a" RL.pp_policy RL.Unreliable)

let suite =
  [
    Alcotest.test_case "full retransmits" `Quick test_full_retransmits;
    Alcotest.test_case "unreliable abandons" `Quick test_unreliable_abandons;
    Alcotest.test_case "partial max_retx" `Quick test_partial_respects_max_retx;
    Alcotest.test_case "partial deadline" `Quick test_partial_respects_deadline;
    Alcotest.test_case "stale queue skipped" `Quick
      test_stale_queue_entries_skipped;
    Alcotest.test_case "dedup loss reports" `Quick
      test_duplicate_loss_reports_queued_once;
    Alcotest.test_case "full fwd = una" `Quick test_full_fwd_point_is_una;
    Alcotest.test_case "policy pp" `Quick test_policy_pp;
    Alcotest.test_case "abandoned set trimmed at una" `Quick
      test_abandoned_set_trimmed;
    Alcotest.test_case "abandoned above a live hole" `Quick
      test_abandoned_above_live_hole;
  ]
