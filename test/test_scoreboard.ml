(* Sack.Scoreboard: send tracking, feedback digestion, loss inference,
   expiry, abandonment. *)

module SB = Scoreboard_lists
module S = Packet.Serial

let blk a b = { Packet.Header.block_start = S.of_int a; block_end = S.of_int b }

let send_n sb ?(start = 0) ?(t0 = 0.0) n =
  for i = start to start + n - 1 do
    SB.on_send sb ~seq:(S.of_int i)
      ~now:(t0 +. (float_of_int i *. 0.001))
      ~size:1000 ~is_retx:false
  done

let test_sequencing () =
  let sb = SB.create () in
  Alcotest.(check int) "starts at 0" 0 (S.to_int (SB.next_seq sb));
  send_n sb 5;
  Alcotest.(check int) "next" 5 (S.to_int (SB.next_seq sb));
  Alcotest.(check int) "una" 0 (S.to_int (SB.una sb));
  Alcotest.(check int) "outstanding" 5 (SB.outstanding sb)

let test_out_of_order_send_rejected () =
  let sb = SB.create () in
  Alcotest.(check bool) "skip rejected" true
    (try
       SB.on_send sb ~seq:(S.of_int 3) ~now:0.0 ~size:1000 ~is_retx:false;
       false
     with Invalid_argument _ -> true)

let test_cum_ack_advances () =
  let sb = SB.create () in
  send_n sb 5;
  let res = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 3) ~blocks:[] in
  Alcotest.(check bool) "cum advanced" true res.SB.cum_advanced;
  Alcotest.(check int) "3 newly acked" 3 (List.length res.SB.newly_acked);
  Alcotest.(check int) "una" 3 (S.to_int (SB.una sb));
  Alcotest.(check int) "outstanding" 2 (SB.outstanding sb);
  (* Acked covers come in ascending order with send times. *)
  (match res.SB.newly_acked with
  | { SB.cov_seq; cov_sent_at; cov_was_retx } :: _ ->
      Alcotest.(check int) "first cover" 0 (S.to_int cov_seq);
      Alcotest.(check (float 1e-9)) "send time" 0.0 cov_sent_at;
      Alcotest.(check bool) "not retx" false cov_was_retx
  | [] -> Alcotest.fail "expected covers")

let test_sack_marks () =
  let sb = SB.create () in
  send_n sb 10;
  let res = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 5 8 ] in
  Alcotest.(check int) "newly sacked" 3 (List.length res.SB.newly_sacked);
  Alcotest.(check bool) "status sacked" true (SB.status sb (S.of_int 6) = `Sacked);
  (* Re-reporting the same block adds nothing. *)
  let res2 = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 5 8 ] in
  Alcotest.(check int) "idempotent" 0 (List.length res2.SB.newly_sacked)

let test_loss_inference_dupthresh () =
  let sb = SB.create () in
  send_n sb 10;
  (* 0 missing; sacked 1-2 -> only 2 above: not yet lost. *)
  let r1 = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 3 ] in
  Alcotest.(check (list int)) "not yet" []
    (List.map S.to_int r1.SB.newly_lost);
  let r2 = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 4 ] in
  Alcotest.(check (list int)) "now lost" [ 0 ]
    (List.map S.to_int r2.SB.newly_lost);
  Alcotest.(check bool) "status lost" true (SB.status sb (S.of_int 0) = `Lost);
  Alcotest.(check (list int)) "pending" [ 0 ]
    (List.map S.to_int (SB.lost_pending sb))

let test_multiple_holes_inferred () =
  let sb = SB.create () in
  send_n sb 12;
  (* Holes at 0,1 and 5; sacked 2..5? sacked blocks [2,5) and [6,12). *)
  let r =
    SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 2 5; blk 6 12 ]
  in
  Alcotest.(check (list int)) "holes below enough sacks" [ 0; 1; 5 ]
    (List.map S.to_int r.SB.newly_lost)

let test_retransmit_resets () =
  let sb = SB.create () in
  send_n sb 6;
  ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 6 ]);
  Alcotest.(check bool) "lost" true (SB.status sb (S.of_int 0) = `Lost);
  SB.on_send sb ~seq:(S.of_int 0) ~now:1.0 ~size:1000 ~is_retx:true;
  Alcotest.(check bool) "in flight again" true
    (SB.status sb (S.of_int 0) = `In_flight);
  Alcotest.(check int) "retx counted" 1 (SB.retx_count sb (S.of_int 0));
  Alcotest.(check int) "stats" 1 (SB.stats_retx sb);
  (* Cum ack after repair: cover reports the original send time and the
     retransmit flag. *)
  let r = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 6) ~blocks:[] in
  match r.SB.newly_acked with
  | [ c ] ->
      Alcotest.(check bool) "was retx" true c.SB.cov_was_retx;
      Alcotest.(check int) "seq 0" 0 (S.to_int c.SB.cov_seq)
  | l -> Alcotest.failf "expected 1 cover (sacked ones not repeated), got %d" (List.length l)

let test_retransmit_unknown_rejected () =
  let sb = SB.create () in
  Alcotest.(check bool) "unknown retx rejected" true
    (try
       SB.on_send sb ~seq:(S.of_int 0) ~now:0.0 ~size:1000 ~is_retx:true;
       false
     with Invalid_argument _ -> true)

let test_mark_expired () =
  let sb = SB.create () in
  send_n sb 3;
  let expired = SB.mark_expired sb ~now:10.0 ~timeout:1.0 in
  Alcotest.(check (list int)) "all expired" [ 0; 1; 2 ]
    (List.map S.to_int expired);
  Alcotest.(check (list int)) "idempotent" []
    (List.map S.to_int (SB.mark_expired sb ~now:10.0 ~timeout:1.0))

let test_expiry_skips_sacked_and_fresh () =
  let sb = SB.create () in
  send_n sb 4;
  ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 2 3 ]);
  (* seq 3 sent at t=3ms; with now=0.1 and timeout=0.098 only 0,1 are old
     enough; 2 is sacked. *)
  let expired = SB.mark_expired sb ~now:0.1 ~timeout:0.0975 in
  Alcotest.(check (list int)) "old unsacked only" [ 0; 1 ]
    (List.map S.to_int expired)

let test_abandon_below () =
  let sb = SB.create () in
  send_n sb 10;
  SB.abandon_below sb (S.of_int 4);
  Alcotest.(check int) "una moved" 4 (S.to_int (SB.una sb));
  Alcotest.(check int) "entries dropped" 6 (SB.outstanding sb);
  Alcotest.(check bool) "untracked" true (SB.status sb (S.of_int 2) = `Untracked)

let test_in_flight_bytes () =
  let sb = SB.create () in
  send_n sb 4;
  Alcotest.(check int) "4 kB" 4000 (SB.in_flight_bytes sb);
  ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk 1 2 ]);
  Alcotest.(check int) "sacked not in flight" 3000 (SB.in_flight_bytes sb)

let prop_sacked_and_lost_disjoint =
  QCheck.Test.make ~name:"no seq both sacked and lost" ~count:200
    QCheck.(list (pair (int_bound 30) (int_bound 5)))
    (fun raw_blocks ->
      let sb = SB.create () in
      send_n sb 32;
      List.iter
        (fun (a, len) ->
          if len > 0 && a + len <= 32 then
            ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks:[ blk a (a + len) ]))
        raw_blocks;
      List.for_all
        (fun i ->
          match SB.status sb (S.of_int i) with
          | `Sacked | `Lost | `In_flight | `Untracked -> true)
        (List.init 32 Fun.id)
      && List.for_all
           (fun s -> SB.status sb s = `Lost)
           (SB.lost_pending sb))

let prop_una_monotone =
  QCheck.Test.make ~name:"una never regresses" ~count:200
    QCheck.(list (int_bound 40))
    (fun acks ->
      let sb = SB.create () in
      send_n sb 40;
      let ok = ref true in
      let prev = ref 0 in
      List.iter
        (fun a ->
          ignore (SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int a) ~blocks:[]);
          let u = S.to_int (SB.una sb) in
          if u < !prev then ok := false;
          prev := u)
        acks;
      !ok)

(* ------------------------------------------------------------------ *)
(* Differential testing against the frozen per-entry reference
   implementation: a random operation stream — send bursts, SACK
   feedback, retransmission of a random subset of the pending losses,
   timeout expiry, abandonment, and the large-window shapes that drive
   the incremental loss inference (a top SACK block growing by a few
   packets per feedback over hundreds in flight; an expiry, a
   retransmit high in the window, then a cumulative jump) — is replayed
   through both the run-length scoreboard and [Scoreboard_ref],
   and every externally observable result must match exactly: feedback
   covers, loss inferences, expiry lists, per-sequence status and the
   aggregate counters. *)

module SBR = Scoreboard_ref

let cover_repr (c : SB.cover) =
  (S.to_int c.SB.cov_seq, c.SB.cov_sent_at, c.SB.cov_was_retx)

let cover_repr_ref (c : SBR.cover) =
  (S.to_int c.SBR.cov_seq, c.SBR.cov_sent_at, c.SBR.cov_was_retx)

(* Feed the same feedback to both and report whether every result
   matches. *)
let feedback_agrees sb sbr ~cum ~blocks ~reo_wnd =
  let r = SB.on_feedback sb ~reo_wnd ~cum_ack:(S.of_int cum) ~blocks in
  let rr = SBR.on_feedback sbr ~reo_wnd ~cum_ack:(S.of_int cum) ~blocks in
  r.SB.cum_advanced = rr.SBR.cum_advanced
  && List.map cover_repr r.SB.newly_acked
     = List.map cover_repr_ref rr.SBR.newly_acked
  && List.map cover_repr r.SB.newly_sacked
     = List.map cover_repr_ref rr.SBR.newly_sacked
  && List.map S.to_int r.SB.newly_lost = List.map S.to_int rr.SBR.newly_lost

let differential_run ~seed ~steps =
  let rng = Engine.Rng.create ~seed in
  let sb = SB.create () in
  let sbr = SBR.create () in
  let now = ref 0.0 in
  let ok = ref true in
  let expect _what b = if not b then ok := false in
  let both_send seq ~is_retx =
    SB.on_send sb ~seq ~now:!now ~size:1000 ~is_retx;
    SBR.on_send sbr ~seq ~now:!now ~size:1000 ~is_retx
  in
  let send_fresh n =
    for _ = 1 to n do
      both_send (SB.next_seq sb) ~is_retx:false
    done
  in
  let expire () =
    let timeout = 0.001 +. Engine.Rng.float rng 0.05 in
    expect "mark_expired"
      (List.map S.to_int (SB.mark_expired sb ~now:!now ~timeout)
      = List.map S.to_int (SBR.mark_expired sbr ~now:!now ~timeout))
  in
  (* The reordering window of each feedback: none, or up to a few
     steps' worth, so repairs are overtaken both at once and only after
     a while. *)
  let reo_wnd () =
    if Engine.Rng.int rng 3 = 0 then 0.0 else Engine.Rng.float rng 0.03
  in
  (* The top SACK block [top_lo, top_hi) the large-window op extends. *)
  let top_lo = ref 0 and top_hi = ref 0 in
  for _ = 1 to steps do
    now := !now +. 0.001 +. Engine.Rng.float rng 0.01;
    (match Engine.Rng.int rng 11 with
    | 0 | 1 -> send_fresh (1 + Engine.Rng.int rng 24)
    | 2 | 3 | 4 ->
        let una = S.to_int (SB.una sb) in
        let nxt = S.to_int (SB.next_seq sb) in
        let window = nxt - una in
        let cum = una + Engine.Rng.int rng (window + 1) in
        let blocks =
          List.init (Engine.Rng.int rng 4) (fun _ ->
              let a = cum + 1 + Engine.Rng.int rng (Stdlib.max 1 (nxt - cum) + 2) in
              blk a (a + 1 + Engine.Rng.int rng 6))
        in
        expect "feedback"
          (feedback_agrees sb sbr ~cum ~blocks ~reo_wnd:(reo_wnd ()))
    | 5 ->
        let lp = SB.lost_pending sb in
        expect "lost_pending"
          (List.map S.to_int lp = List.map S.to_int (SBR.lost_pending sbr));
        List.iter
          (fun s -> if Engine.Rng.int rng 2 = 0 then both_send s ~is_retx:true)
          lp
    | 6 -> expire ()
    | 7 ->
        let una = S.to_int (SB.una sb) in
        let window = S.to_int (SB.next_seq sb) - una in
        let upto = S.of_int (una + Engine.Rng.int rng (window + 1)) in
        SB.abandon_below sb upto;
        SBR.abandon_below sbr upto
    | 8 | 9 ->
        (* Large window, top block growing by 1-3 packets per report. *)
        let una = S.to_int (SB.una sb) in
        if S.to_int (SB.next_seq sb) - una < 200 then
          send_fresh (200 + Engine.Rng.int rng 200);
        let nxt = S.to_int (SB.next_seq sb) in
        if !top_lo <= una || !top_hi >= nxt then begin
          top_lo := una + 1 + Engine.Rng.int rng ((nxt - una) / 2);
          top_hi := !top_lo
        end;
        top_hi := Stdlib.min nxt (!top_hi + 1 + Engine.Rng.int rng 3);
        expect "top-block feedback"
          (feedback_agrees sb sbr ~cum:una
             ~blocks:[ blk !top_lo !top_hi ]
             ~reo_wnd:(reo_wnd ()))
    | _ ->
        (* Expiry, a retransmit high in the window (above the dupthresh
           point unless the top is SACKed), then a cumulative jump into
           the upper part of the window. *)
        expire ();
        (match List.rev (SB.lost_pending sb) with
        | top :: _ -> both_send top ~is_retx:true
        | [] -> ());
        let una = S.to_int (SB.una sb) in
        let nxt = S.to_int (SB.next_seq sb) in
        let cum = nxt - Engine.Rng.int rng (((nxt - una) / 4) + 1) in
        expect "cum jump"
          (feedback_agrees sb sbr ~cum ~blocks:[] ~reo_wnd:(reo_wnd ())));
    expect "una" (S.equal (SB.una sb) (SBR.una sbr));
    expect "next_seq" (S.equal (SB.next_seq sb) (SBR.next_seq sbr));
    expect "outstanding" (SB.outstanding sb = SBR.outstanding sbr);
    expect "in_flight" (SB.in_flight_bytes sb = SBR.in_flight_bytes sbr)
  done;
  let una = S.to_int (SB.una sb) and nxt = S.to_int (SB.next_seq sb) in
  for i = Stdlib.max 0 (una - 2) to nxt + 2 do
    let s = S.of_int i in
    expect "status" (SB.status sb s = SBR.status sbr s);
    expect "retx_count" (SB.retx_count sb s = SBR.retx_count sbr s);
    expect "first_sent_at" (SB.first_sent_at sb s = SBR.first_sent_at sbr s)
  done;
  expect "stats_sent" (SB.stats_sent sb = SBR.stats_sent sbr);
  expect "stats_retx" (SB.stats_retx sb = SBR.stats_retx sbr);
  expect "stats_acked" (SB.stats_acked sb = SBR.stats_acked sbr);
  !ok

let prop_differential_vs_reference =
  QCheck.Test.make
    ~name:"run-length scoreboard matches the frozen reference" ~count:250
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 120))
    (fun (seed, steps) -> differential_run ~seed ~steps)

(* A repair below the dupthresh point is in flight again, and only send
   order re-infers it: feedback that covers numbers sent before it, or
   within the reordering window after it, leaves it alone; a SACK of a
   number sent later than that marks it lost again; SACK coverage of the
   repair itself settles it for good.  The reference agrees at every
   step. *)
let test_repair_relost_by_send_order () =
  let sb = SB.create () in
  let sbr = SBR.create () in
  let send s ~now ~is_retx =
    SB.on_send sb ~seq:(S.of_int s) ~now ~size:1000 ~is_retx;
    SBR.on_send sbr ~seq:(S.of_int s) ~now ~size:1000 ~is_retx
  in
  for i = 0 to 19 do
    send i ~now:(float_of_int i) ~is_retx:false
  done;
  let lost_both ~blocks =
    let reo_wnd = 0.5 in
    let r = SB.on_feedback sb ~cum_ack:(S.of_int 0) ~blocks ~reo_wnd in
    let rr = SBR.on_feedback sbr ~cum_ack:(S.of_int 0) ~blocks ~reo_wnd in
    let l = List.map S.to_int r.SB.newly_lost in
    Alcotest.(check (list int)) "same as the reference" l
      (List.map S.to_int rr.SBR.newly_lost);
    l
  in
  Alcotest.(check (list int)) "holes below the dupthresh point" [ 0; 2; 4 ]
    (lost_both ~blocks:[ blk 1 2; blk 3 4; blk 5 12 ]);
  send 2 ~now:30.0 ~is_retx:true;
  send 4 ~now:30.0 ~is_retx:true;
  Alcotest.(check bool) "repair is in flight" true
    (SB.status sb (S.of_int 2) = `In_flight);
  Alcotest.(check (list int)) "unchanged feedback re-infers nothing" []
    (lost_both ~blocks:[ blk 5 12 ]);
  Alcotest.(check (list int)) "numbers sent before the repairs do not" []
    (lost_both ~blocks:[ blk 12 16 ]);
  send 20 ~now:30.25 ~is_retx:false;
  send 21 ~now:31.0 ~is_retx:false;
  Alcotest.(check (list int)) "a number sent within the window does not" []
    (lost_both ~blocks:[ blk 20 21 ]);
  Alcotest.(check (list int)) "the repair's own SACK settles it" []
    (lost_both ~blocks:[ blk 2 3 ]);
  Alcotest.(check (list int)) "a number sent later re-infers the other" [ 4 ]
    (lost_both ~blocks:[ blk 21 22 ]);
  send 4 ~now:32.0 ~is_retx:true;
  Alcotest.(check (list int)) "the second repair waits for its own" []
    (lost_both ~blocks:[ blk 16 20 ]);
  Alcotest.(check (list int)) "pending losses agree"
    (List.map S.to_int (SBR.lost_pending sbr))
    (List.map S.to_int (SB.lost_pending sb));
  for i = 0 to 22 do
    Alcotest.(check bool)
      (Printf.sprintf "status %d" i)
      true
      (SB.status sb (S.of_int i) = SBR.status sbr (S.of_int i))
  done;
  Alcotest.(check bool) "2 SACKed, 4 in flight" true
    (SB.status sb (S.of_int 2) = `Sacked
    && SB.status sb (S.of_int 4) = `In_flight)

(* Adversarial fragmentation: SACK every second packet of a large
   window in one feedback — the worst case for any run-length scheme.
   The representation must hold exactly one run per reported block (no
   super-linear blowup), infer the interleaved holes lost, and collapse
   back to zero runs once the cumulative ack sweeps the window. *)
let test_alternating_sack_fragmentation () =
  let n = 2000 in
  let sb = SB.create () in
  send_n sb n;
  let blocks = List.init (n / 2) (fun i -> blk ((2 * i) + 1) ((2 * i) + 2)) in
  let r = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int 0) ~blocks in
  Alcotest.(check int) "every block newly sacked" (n / 2)
    (List.length r.SB.newly_sacked);
  let sacked_runs, lost_runs = SB.runs_held sb in
  Alcotest.(check int) "one run per disjoint block" (n / 2) sacked_runs;
  Alcotest.(check bool) "lost runs bounded by holes" true
    (lost_runs <= n / 2);
  (* Holes with >= dupthresh sacked packets above them are lost: all
     even numbers except the last two. *)
  Alcotest.(check int) "holes inferred lost" ((n / 2) - 2)
    (List.length r.SB.newly_lost);
  let r2 = SB.on_feedback sb ~reo_wnd:0.0 ~cum_ack:(S.of_int n) ~blocks:[] in
  Alcotest.(check int) "cum sweep acks the holes" (n / 2)
    (List.length r2.SB.newly_acked);
  Alcotest.(check (pair int int)) "runs collapse to nothing" (0, 0)
    (SB.runs_held sb);
  Alcotest.(check int) "nothing outstanding" 0 (SB.outstanding sb)

(* --- iter_feedback: callback order and parity with on_feedback ---- *)

let test_iter_feedback_ordering () =
  (* Two identically-prepared scoreboards digest the same feedback, one
     through the streaming iterator and one through the list-building
     wrapper: the callback stream must replay the wrapper's covers
     exactly, phase by phase (acks, then sacks, then losses), each
     phase in ascending sequence order, and the summary counts must
     match. *)
  let prep () =
    let sb = SB.create () in
    send_n sb 12;
    sb
  in
  let cum_ack = S.of_int 3 and blocks = [ blk 5 6; blk 8 11 ] in
  let events = ref [] in
  let sum =
    SB.iter_feedback (prep ()) ~cum_ack ~blocks ~reo_wnd:0.0
      ~on_ack:(fun ~seq ~sent_at ~was_retx:_ ->
        events := `Ack (S.to_int seq, sent_at) :: !events)
      ~on_sack:(fun ~seq ~sent_at ~was_retx:_ ->
        events := `Sack (S.to_int seq, sent_at) :: !events)
      ~on_lost:(fun seq -> events := `Lost (S.to_int seq) :: !events)
  in
  let ev = List.rev !events in
  let phase = function `Ack _ -> 0 | `Sack _ -> 1 | `Lost _ -> 2 in
  let seq_of = function `Ack (s, _) | `Sack (s, _) -> s | `Lost s -> s in
  let rec phases_ascend = function
    | a :: (b :: _ as rest) ->
        (phase a < phase b || (phase a = phase b && seq_of a < seq_of b))
        && phases_ascend rest
    | _ -> true
  in
  Alcotest.(check bool) "acks, then sacks, then losses; each ascending" true
    (phases_ascend ev);
  let r = SB.on_feedback (prep ()) ~cum_ack ~blocks ~reo_wnd:0.0 in
  let covers k l =
    List.map (fun c -> k (S.to_int c.SB.cov_seq, c.SB.cov_sent_at)) l
  in
  Alcotest.(check bool) "stream replays the wrapper's covers" true
    (ev
    = covers (fun x -> `Ack x) r.SB.newly_acked
      @ covers (fun x -> `Sack x) r.SB.newly_sacked
      @ List.map (fun s -> `Lost (S.to_int s)) r.SB.newly_lost);
  Alcotest.(check int) "fb_acked" (List.length r.SB.newly_acked) sum.SB.fb_acked;
  Alcotest.(check int) "fb_sacked" (List.length r.SB.newly_sacked)
    sum.SB.fb_sacked;
  Alcotest.(check int) "fb_lost" (List.length r.SB.newly_lost) sum.SB.fb_lost;
  Alcotest.(check bool) "losses were actually inferred" true
    (sum.SB.fb_lost > 0)

let suite =
  [
    Alcotest.test_case "iter_feedback: callback order and parity" `Quick
      test_iter_feedback_ordering;
    Alcotest.test_case "sequencing" `Quick test_sequencing;
    Alcotest.test_case "out of order rejected" `Quick
      test_out_of_order_send_rejected;
    Alcotest.test_case "cum ack" `Quick test_cum_ack_advances;
    Alcotest.test_case "sack marks" `Quick test_sack_marks;
    Alcotest.test_case "loss inference" `Quick test_loss_inference_dupthresh;
    Alcotest.test_case "multiple holes" `Quick test_multiple_holes_inferred;
    Alcotest.test_case "retransmit resets" `Quick test_retransmit_resets;
    Alcotest.test_case "unknown retx rejected" `Quick
      test_retransmit_unknown_rejected;
    Alcotest.test_case "mark_expired" `Quick test_mark_expired;
    Alcotest.test_case "expiry selective" `Quick
      test_expiry_skips_sacked_and_fresh;
    Alcotest.test_case "abandon_below" `Quick test_abandon_below;
    Alcotest.test_case "in-flight bytes" `Quick test_in_flight_bytes;
    Alcotest.test_case "alternating-loss fragmentation bounded" `Quick
      test_alternating_sack_fragmentation;
    Alcotest.test_case
      "retransmit below the frontier is re-inferred by send order" `Quick
      test_repair_relost_by_send_order;
    QCheck_alcotest.to_alcotest prop_sacked_and_lost_disjoint;
    QCheck_alcotest.to_alcotest prop_una_monotone;
    QCheck_alcotest.to_alcotest prop_differential_vs_reference;
  ]
