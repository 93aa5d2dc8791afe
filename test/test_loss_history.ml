(* Tfrc.Loss_history: hole detection, loss-event grouping, weighted
   average, discounting, retransmit exclusion. *)

module LH = Tfrc.Loss_history
module S = Packet.Serial

let rtt = 0.1

(* Feed sequence numbers (1 ms apart) with [skip] numbers missing. *)
let feed ?(lh = LH.create ()) ?(gap = 0.001) present =
  List.iter
    (fun i ->
      LH.on_packet lh ~seq:(S.of_int i)
        ~arrival:(float_of_int i *. gap)
        ~rtt ~is_retx:false)
    present;
  lh

let range a b = List.init (b - a) (fun i -> a + i)

let test_no_loss () =
  let lh = feed (range 0 100) in
  Alcotest.(check int) "no events" 0 (LH.loss_events lh);
  Alcotest.(check (float 0.0)) "p = 0" 0.0 (LH.loss_event_rate lh);
  Alcotest.(check int) "packets" 100 (LH.packets_seen lh)

let test_single_hole_detected () =
  (* 50 missing; ndup=3 means it is lost once 51..53 arrive. *)
  let lh = feed (range 0 50 @ range 51 54) in
  Alcotest.(check int) "one loss" 1 (LH.losses lh);
  Alcotest.(check int) "one event" 1 (LH.loss_events lh)

let test_hole_needs_ndup () =
  let lh = feed (range 0 50 @ [ 51; 52 ]) in
  Alcotest.(check int) "not yet confirmed" 0 (LH.losses lh)

let test_late_arrival_cancels_hole () =
  let lh = LH.create () in
  let send i = LH.on_packet lh ~seq:(S.of_int i) ~arrival:(float_of_int i *. 0.001) ~rtt ~is_retx:false in
  List.iter send [ 0; 1; 3; 4 ];
  (* 2 is a pending hole with after=2; its late arrival repairs it. *)
  send 2;
  List.iter send [ 5; 6; 7; 8 ];
  Alcotest.(check int) "no losses" 0 (LH.losses lh)

let test_burst_groups_into_one_event () =
  (* Five consecutive losses within one RTT: one loss event. *)
  let lh = feed (range 0 50 @ range 55 70) in
  Alcotest.(check int) "five losses" 5 (LH.losses lh);
  Alcotest.(check int) "one event" 1 (LH.loss_events lh)

let test_spread_losses_are_separate_events () =
  (* Losses far apart in time (> RTT at 1 ms spacing -> 150 apart). *)
  let present =
    List.filter (fun i -> i <> 100 && i <> 400 && i <> 700) (range 0 1000)
  in
  let lh = feed present in
  Alcotest.(check int) "three losses" 3 (LH.losses lh);
  Alcotest.(check int) "three events" 3 (LH.loss_events lh)

let test_retransmit_excluded () =
  let lh = LH.create () in
  LH.on_packet lh ~seq:(S.of_int 0) ~arrival:0.0 ~rtt ~is_retx:false;
  LH.on_packet lh ~seq:(S.of_int 1) ~arrival:0.001 ~rtt ~is_retx:true;
  Alcotest.(check int) "retx not counted" 1 (LH.packets_seen lh)

let test_mean_interval_weighted () =
  (* Construct exactly two closed intervals of 100 and 200 packets.
     Open interval small; weights for 2 terms are both 1. *)
  let present =
    List.filter (fun i -> i <> 100 && i <> 300 && i <> 400) (range 0 1000)
  in
  let lh = feed ~gap:0.05 present in
  (* gap 0.05 > rtt: every loss is its own event. *)
  Alcotest.(check int) "three events" 3 (LH.loss_events lh);
  let intervals = LH.closed_intervals lh in
  Alcotest.(check (list (float 0.5))) "closed intervals newest-first"
    [ 100.0; 200.0 ] intervals

(* RFC 3448 section 5.4 conformance: with a full history of n = 8
   closed intervals the weights must be [1;1;1;1;0.8;0.6;0.4;0.2]
   (newest first).  Nine isolated loss events at seqs 10, 20, 31, 43,
   56, 70, 85, 101, 118 close intervals of 10..17 packets, so newest
   first the history reads [17;..;10] and the weighted mean is
     (17+16+15+14 + 0.8*13 + 0.6*12 + 0.4*11 + 0.2*10) / 6 = 86/6,
   giving p = 6/86 exactly (the short open interval cannot win the
   max, and at 3 packets it triggers no discounting). *)
let test_rfc3448_weights_vector () =
  let losses = [ 10; 20; 31; 43; 56; 70; 85; 101; 118 ] in
  let present =
    List.filter (fun i -> not (List.mem i losses)) (range 0 122)
  in
  let lh = feed ~gap:0.05 present in
  Alcotest.(check int) "nine events" 9 (LH.loss_events lh);
  Alcotest.(check (list (float 1e-9)))
    "closed intervals newest-first"
    [ 17.; 16.; 15.; 14.; 13.; 12.; 11.; 10. ]
    (LH.closed_intervals lh);
  Alcotest.(check (float 1e-12)) "p = 6/86" (6.0 /. 86.0)
    (LH.loss_event_rate lh)

let test_p_tracks_loss_rate_ballpark () =
  (* Periodic loss every 100 packets, spaced out in time: p ~ 1/100. *)
  let present = List.filter (fun i -> i mod 100 <> 99) (range 0 3000) in
  let lh = feed ~gap:0.05 present in
  let p = LH.loss_event_rate lh in
  Alcotest.(check bool)
    (Printf.sprintf "p %f ~ 0.01" p)
    true
    (p > 0.005 && p < 0.02)

let test_first_interval_seeding () =
  let lh = LH.create () in
  let send i =
    LH.on_packet lh ~seq:(S.of_int i) ~arrival:(float_of_int i *. 0.001) ~rtt
      ~is_retx:false
  in
  List.iter send (range 0 10);
  LH.set_first_interval lh 500.0;
  Alcotest.(check (list (float 1e-9))) "seed stored" [ 500.0 ]
    (LH.closed_intervals lh);
  (* Seeding is only effective while no closed interval exists. *)
  LH.set_first_interval lh 900.0;
  Alcotest.(check (list (float 1e-9))) "seed not replaced" [ 500.0 ]
    (LH.closed_intervals lh)

let test_discounting_faster_recovery () =
  let mk discount =
    let lh = LH.create ~discount () in
    (* losses early... *)
    let present = List.filter (fun i -> i mod 50 <> 49) (range 0 500) in
    List.iter
      (fun i ->
        LH.on_packet lh ~seq:(S.of_int i) ~arrival:(float_of_int i *. 0.05)
          ~rtt ~is_retx:false)
      present;
    (* ...then a long clean stretch. *)
    List.iter
      (fun i ->
        LH.on_packet lh ~seq:(S.of_int i)
          ~arrival:(25.0 +. (float_of_int i *. 0.05))
          ~rtt ~is_retx:false)
      (range 500 3000);
    LH.loss_event_rate lh
  in
  let p_disc = mk true and p_plain = mk false in
  Alcotest.(check bool)
    (Printf.sprintf "discounted %f <= undisc %f" p_disc p_plain)
    true (p_disc <= p_plain)

let test_history_bounded () =
  (* Many events: closed interval list stays at the history depth. *)
  let present = List.filter (fun i -> i mod 20 <> 19) (range 0 5000) in
  let lh = feed ~gap:0.05 present in
  Alcotest.(check bool) "history bounded at 8" true
    (List.length (LH.closed_intervals lh) <= 8)

let test_max_seq () =
  let lh = feed [ 0; 1; 2; 7 ] in
  match LH.max_seq lh with
  | Some s -> Alcotest.(check int) "max seq" 7 (S.to_int s)
  | None -> Alcotest.fail "expected max_seq"

let test_cost_charged () =
  let cost = Stats.Cost.create () in
  let lh = LH.create ~cost () in
  List.iter
    (fun i ->
      LH.on_packet lh ~seq:(S.of_int i) ~arrival:(float_of_int i *. 0.001)
        ~rtt ~is_retx:false)
    (range 0 100);
  ignore (LH.loss_event_rate lh);
  Alcotest.(check int) "update charged per packet" 100
    (Stats.Cost.ops cost "lh.update")

(* A sequence jump opens one hole run however wide, and its charge is
   one counter update; once the packets after the jump ripen the hole,
   it is promoted to losses whole, in one loss event.  2^30 numbers past
   the highest seen, and their promotion, take well under 0.1 s of CPU,
   with or without a cost model, and [lh.hole] and [lh.loss] still count
   every number of the hole. *)
let test_jump_is_constant_time () =
  let jump lh =
    let feed i arrival =
      LH.on_packet lh ~seq:(S.of_int i) ~arrival ~rtt ~is_retx:false
    in
    feed 0 0.0;
    let t0 = Sys.time () in
    feed (1 lsl 30) 0.001;
    Alcotest.(check int) "one hole run" 1 (LH.holes_held lh);
    feed ((1 lsl 30) + 1) 0.002;
    feed ((1 lsl 30) + 2) 0.003;
    Alcotest.(check int) "no hole left" 0 (LH.holes_held lh);
    Sys.time () -. t0
  in
  let lh = LH.create () in
  let took = jump lh in
  if took >= 0.1 then Alcotest.failf "2^30 jump took %.3f s of CPU" took;
  Alcotest.(check int) "losses" ((1 lsl 30) - 1) (LH.losses lh);
  Alcotest.(check int) "one loss event" 1 (LH.loss_events lh);
  let cost = Stats.Cost.create () in
  let lh = LH.create ~cost () in
  let took = jump lh in
  if took >= 0.1 then
    Alcotest.failf "2^30 jump took %.3f s of CPU with a cost model" took;
  Alcotest.(check int) "lh.hole" ((1 lsl 30) - 1)
    (Stats.Cost.ops cost "lh.hole");
  Alcotest.(check int) "lh.loss" ((1 lsl 30) - 1)
    (Stats.Cost.ops cost "lh.loss");
  Alcotest.(check int) "losses with a cost model" ((1 lsl 30) - 1)
    (LH.losses lh);
  Alcotest.(check int) "one loss event with a cost model" 1 (LH.loss_events lh)

(* A swapped-pair stream (1, 0, 3, 2, ...): each new maximum opens a
   one-number hole that the next packet fills before it ripens.  The
   only allocation is the [Some] of each new maximum: one word a call. *)
let test_on_packet_allocation () =
  let lh = LH.create () in
  let n = 10_000 in
  let seqs = Array.init (2 * n) (fun i -> S.of_int (i lxor 1)) in
  let per_call =
    Test_tfrc_flow.words_per_call n (fun i ->
        LH.on_packet lh ~seq:seqs.(i) ~arrival:0.0 ~rtt ~is_retx:false)
  in
  Alcotest.(check int) "no losses" 0 (LH.losses lh);
  if per_call > 1.0 then
    Alcotest.failf "%.2f minor words per on_packet (at most 1)" per_call

(* Reference model: loss events computed independently with a simple
   brute-force pass, compared against the incremental implementation. *)
let prop_events_match_reference =
  QCheck.Test.make ~name:"loss events match a brute-force reference" ~count:150
    QCheck.(pair (int_range 1 10_000) (int_range 1 15))
    (fun (seed, loss_pct) ->
      let rng = Engine.Rng.create ~seed in
      let n = 2000 in
      let gap = 0.004 in
      (* ~12 packets per RTT *)
      let alive =
        Array.init n (fun _ ->
            not (Engine.Rng.chance rng (float_of_int loss_pct /. 100.0)))
      in
      (* Incremental implementation. *)
      let lh = LH.create () in
      Array.iteri
        (fun i ok ->
          if ok then
            LH.on_packet lh ~seq:(S.of_int i)
              ~arrival:(float_of_int i *. gap)
              ~rtt ~is_retx:false)
        alive;
      (* Reference: a lost packet i is "detected" at the arrival time of
         the 3rd received packet after it; detections within [rtt] of the
         current event's start merge.  Only losses whose detection exists
         (3 later arrivals) count — same ndup semantics. *)
      let detection i =
        let rec scan j remaining =
          if j >= n then None
          else if alive.(j) then
            if remaining = 1 then Some (float_of_int j *. gap)
            else scan (j + 1) (remaining - 1)
          else scan (j + 1) remaining
        in
        scan (i + 1) 3
      in
      (* A receiver cannot detect losses before the first packet it ever
         received (they are before its window opens), so the reference
         starts at the first alive position. *)
      let first_alive =
        let rec scan i = if i >= n || alive.(i) then i else scan (i + 1) in
        scan 0
      in
      let events = ref 0 in
      let current_start = ref neg_infinity in
      for i = first_alive to n - 1 do
        if not alive.(i) then
          match detection i with
          | Some det ->
              if det -. !current_start > rtt then begin
                incr events;
                current_start := det
              end
          | None -> ()
      done;
      LH.loss_events lh = !events)

let prop_p_in_unit_interval =
  QCheck.Test.make ~name:"p always in [0,1]" ~count:100
    QCheck.(list (int_bound 2000))
    (fun xs ->
      let lh = LH.create () in
      let sorted = List.sort_uniq Int.compare xs in
      List.iter
        (fun i ->
          LH.on_packet lh ~seq:(S.of_int i)
            ~arrival:(float_of_int i *. 0.001)
            ~rtt ~is_retx:false)
        sorted;
      let p = LH.loss_event_rate lh in
      p >= 0.0 && p <= 1.0)

(* ------------------------------------------------------------------ *)
(* Differential testing against the frozen per-hole reference
   implementation: random arrival streams — in-order runs, skips that
   open holes, late arrivals that repair them, retransmissions — replay
   through both histories, and every observable must match exactly:
   loss counts, event grouping, the closed-interval list (bitwise — the
   float pipeline is shared), and the resulting loss event rate. *)

module LHR = Loss_history_ref

let differential_history_run ~seed ~steps =
  let rng = Engine.Rng.create ~seed in
  let lh = LH.create () in
  let lr = LHR.create () in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let next = ref 0 in
  let pending = ref [] in
  let clock = ref 0.0 in
  let both seq ~is_retx =
    LH.on_packet lh ~seq:(S.of_int seq) ~arrival:!clock ~rtt ~is_retx;
    LHR.on_packet lr ~seq:(S.of_int seq) ~arrival:!clock ~rtt ~is_retx
  in
  for _ = 1 to steps do
    clock := !clock +. 0.002 +. Engine.Rng.float rng 0.006;
    (match Engine.Rng.int rng 11 with
    | 10 ->
        (* Mid-stream handover: both histories re-seed through the same
           discontinuity — 0 models the [`Reset] policy (clear), a
           positive interval models [`Informed] (declared-rate seed).
           Sequence numbering continues across the migration; pending
           skipped numbers stay eligible as post-reseed late arrivals,
           so both implementations must agree on how a pre-handover
           straggler lands in the reset window. *)
        let len =
          if Engine.Rng.bool rng then 0.0
          else 10.0 +. Engine.Rng.float rng 500.0
        in
        LH.reseed lh len;
        LHR.reseed lr len
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        both !next ~is_retx:false;
        incr next
    | 6 | 7 ->
        (* Skip ahead, remembering the skipped numbers as candidate
           late arrivals. *)
        let gap = 1 + Engine.Rng.int rng 4 in
        for s = !next to !next + gap - 1 do
          pending := s :: !pending
        done;
        next := !next + gap;
        both !next ~is_retx:false;
        incr next
    | 8 -> (
        match !pending with
        | [] -> ()
        | l ->
            let i = Engine.Rng.int rng (List.length l) in
            let s = List.nth l i in
            pending := List.filteri (fun j _ -> j <> i) l;
            both s ~is_retx:false)
    | _ ->
        (* Retransmission of an old number: excluded from accounting. *)
        both (Engine.Rng.int rng (Stdlib.max 1 !next)) ~is_retx:true);
    if List.length !pending > 16 then
      pending := List.filteri (fun j _ -> j < 16) !pending;
    expect (LH.losses lh = LHR.losses lr);
    expect (LH.loss_events lh = LHR.loss_events lr)
  done;
  expect (LH.packets_seen lh = LHR.packets_seen lr);
  expect (LH.congestion_marks lh = LHR.congestion_marks lr);
  expect (LH.max_seq lh = LHR.max_seq lr);
  expect (LH.closed_intervals lh = LHR.closed_intervals lr);
  expect (Float.equal (LH.open_interval lh) (LHR.open_interval lr));
  expect (Float.equal (LH.mean_interval lh) (LHR.mean_interval lr));
  expect (Float.equal (LH.loss_event_rate lh) (LHR.loss_event_rate lr));
  !ok

let prop_differential_vs_reference =
  QCheck.Test.make
    ~name:
      "run-length loss history matches the frozen reference (with handovers)"
    ~count:250
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 400))
    (fun (seed, steps) -> differential_history_run ~seed ~steps)

(* Adversarial fragmentation: every second packet missing — the
   maximally fragmented hole pattern.  The epoch-virtualised promotion
   must keep the tracked-run tail at [ndup] or fewer (ripe holes are a
   prefix and leave immediately), never one run per historical hole. *)
let test_alternating_loss_holes_bounded () =
  let n = 1000 in
  let lh = LH.create () in
  List.iter
    (fun i ->
      LH.on_packet lh ~seq:(S.of_int (2 * i))
        ~arrival:(float_of_int i *. 0.001)
        ~rtt ~is_retx:false)
    (List.init n Fun.id);
  Alcotest.(check bool)
    (Printf.sprintf "holes held %d <= ndup" (LH.holes_held lh))
    true
    (LH.holes_held lh <= 3);
  (* Each arrival confirms earlier holes; all but the youngest two of
     the n-1 holes have ndup confirmations. *)
  Alcotest.(check int) "promoted losses" (n - 3) (LH.losses lh)

let suite =
  [
    Alcotest.test_case "no loss" `Quick test_no_loss;
    Alcotest.test_case "single hole" `Quick test_single_hole_detected;
    Alcotest.test_case "hole needs ndup" `Quick test_hole_needs_ndup;
    Alcotest.test_case "late arrival repairs" `Quick
      test_late_arrival_cancels_hole;
    Alcotest.test_case "burst groups into one event" `Quick
      test_burst_groups_into_one_event;
    Alcotest.test_case "spread losses separate" `Quick
      test_spread_losses_are_separate_events;
    Alcotest.test_case "retransmit excluded" `Quick test_retransmit_excluded;
    Alcotest.test_case "intervals closed correctly" `Quick
      test_mean_interval_weighted;
    Alcotest.test_case "RFC 3448 \xc2\xa75.4 weights vector" `Quick
      test_rfc3448_weights_vector;
    Alcotest.test_case "p ballpark" `Quick test_p_tracks_loss_rate_ballpark;
    Alcotest.test_case "first interval seeding" `Quick
      test_first_interval_seeding;
    Alcotest.test_case "discounting recovery" `Quick
      test_discounting_faster_recovery;
    Alcotest.test_case "history bounded" `Quick test_history_bounded;
    Alcotest.test_case "max_seq" `Quick test_max_seq;
    Alcotest.test_case "cost charged" `Quick test_cost_charged;
    Alcotest.test_case "jump is constant time" `Quick
      test_jump_is_constant_time;
    Alcotest.test_case "on_packet allocates at most 1 word" `Quick
      test_on_packet_allocation;
    Alcotest.test_case "alternating-loss holes bounded" `Quick
      test_alternating_loss_holes_bounded;
    QCheck_alcotest.to_alcotest prop_events_match_reference;
    QCheck_alcotest.to_alcotest prop_p_in_unit_interval;
    QCheck_alcotest.to_alcotest prop_differential_vs_reference;
  ]
