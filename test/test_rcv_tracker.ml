(* Sack.Rcv_tracker: cumulative ack, range merging, SACK block
   generation, forward points. *)

module T = Sack.Rcv_tracker
module S = Packet.Serial

let feed t xs = List.iter (fun i -> T.on_data t ~seq:(S.of_int i)) xs

let blocks_ints t =
  List.map
    (fun (b : Packet.Header.sack_block) ->
      (S.to_int b.Packet.Header.block_start, S.to_int b.Packet.Header.block_end))
    (T.all_ranges t)

let test_in_order () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 2; 3 ];
  Alcotest.(check int) "cum advances" 4 (S.to_int (T.cum_ack t));
  Alcotest.(check (list (pair int int))) "no ranges" [] (blocks_ints t)

let test_gap_creates_range () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 5; 6 ];
  Alcotest.(check int) "cum stuck at hole" 2 (S.to_int (T.cum_ack t));
  Alcotest.(check (list (pair int int))) "range" [ (5, 7) ] (blocks_ints t)

let test_fill_merges_back () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 5; 6; 3; 4 ];
  Alcotest.(check (list (pair int int))) "one merged range" [ (3, 7) ]
    (blocks_ints t);
  feed t [ 2 ];
  Alcotest.(check int) "cum jumps over merged range" 7
    (S.to_int (T.cum_ack t));
  Alcotest.(check (list (pair int int))) "ranges consumed" [] (blocks_ints t)

let test_multiple_ranges_sorted () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 10; 5; 20 ];
  Alcotest.(check (list (pair int int)))
    "ascending disjoint ranges"
    [ (5, 6); (10, 11); (20, 21) ]
    (blocks_ints t)

let test_duplicates_counted () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 1; 0; 5; 5 ];
  Alcotest.(check int) "dups" 3 (T.duplicates t);
  Alcotest.(check int) "packets counted raw" 6 (T.packets t)

(* Exact duplicates must leave the acknowledgment state untouched: no
   cum movement, no new or widened ranges, no SACK block changes. *)
let test_duplicates_leave_state_untouched () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 5; 6; 10 ];
  let cum = S.to_int (T.cum_ack t) in
  let ranges = blocks_ints t in
  feed t [ 0; 1; 5; 6; 10; 5; 10 ];
  Alcotest.(check int) "cum unchanged" cum (S.to_int (T.cum_ack t));
  Alcotest.(check (list (pair int int))) "ranges unchanged" ranges
    (blocks_ints t);
  Alcotest.(check int) "all counted as dups" 7 (T.duplicates t)

(* The deliberate-bug hook exists for the fuzz harness's negative test;
   prove it really corrupts the range list (a below-cum block appears)
   and that turning it off restores correct behaviour. *)
let test_bug_hook_corrupts_ranges () =
  Sack.Rcv_tracker.test_only_skip_dup_check := true;
  Fun.protect
    ~finally:(fun () -> Sack.Rcv_tracker.test_only_skip_dup_check := false)
    (fun () ->
      let t = T.create ~deliver:ignore () in
      feed t [ 0; 1; 2 ];
      (* A duplicate of 1 now re-inserts a range below the cum point. *)
      feed t [ 1 ];
      Alcotest.(check bool)
        "bogus below-cum range present" true
        (List.exists (fun (lo, _) -> lo < S.to_int (T.cum_ack t))
           (blocks_ints t)));
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 2; 1 ];
  Alcotest.(check (list (pair int int))) "clean again with hook off" []
    (blocks_ints t)

let test_sack_blocks_recency_first () =
  let t = T.create ~max_blocks:2 ~deliver:ignore () in
  feed t [ 0; 5; 10; 15; 20 ];
  (* Four ranges exist; the report must carry the two most recent. *)
  let blocks = T.sack_blocks t in
  Alcotest.(check int) "bounded" 2 (List.length blocks);
  match blocks with
  | first :: second :: _ ->
      Alcotest.(check int) "most recent first" 20
        (S.to_int first.Packet.Header.block_start);
      Alcotest.(check int) "then previous" 15
        (S.to_int second.Packet.Header.block_start)
  | _ -> Alcotest.fail "expected 2 blocks"

let test_received_query () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 5 ];
  Alcotest.(check bool) "cum-covered" true (T.received t (S.of_int 1));
  Alcotest.(check bool) "ranged" true (T.received t (S.of_int 5));
  Alcotest.(check bool) "hole" false (T.received t (S.of_int 3))

let test_fwd_point_abandons () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 5; 6 ];
  T.apply_fwd_point t (S.of_int 4);
  Alcotest.(check int) "cum at fwd" 4 (S.to_int (T.cum_ack t));
  feed t [ 4 ];
  Alcotest.(check int) "then merges through the range" 7
    (S.to_int (T.cum_ack t))

let test_fwd_point_into_range () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 5; 6; 7 ];
  (* fwd into the middle of [5,8): everything below 6 abandoned, range
     trimmed and immediately consumed. *)
  T.apply_fwd_point t (S.of_int 6);
  Alcotest.(check int) "cum continues through trimmed range" 8
    (S.to_int (T.cum_ack t))

let test_fwd_point_backwards_ignored () =
  let t = T.create ~deliver:ignore () in
  feed t [ 0; 1; 2 ];
  T.apply_fwd_point t (S.of_int 1);
  Alcotest.(check int) "no regression" 3 (S.to_int (T.cum_ack t))

let test_cost_o1 () =
  let cost = Stats.Cost.create () in
  let t = T.create ~cost ~deliver:ignore () in
  feed t (List.init 1000 Fun.id);
  Alcotest.(check int) "one charge per packet" 1000
    (Stats.Cost.ops cost "recv.light.packet")

let prop_tracker_vs_reference =
  (* Against a naive reference set implementation. *)
  QCheck.Test.make ~name:"tracker matches reference semantics" ~count:200
    QCheck.(list (int_bound 100))
    (fun arrivals ->
      let t = T.create ~deliver:ignore () in
      let received = Hashtbl.create 64 in
      List.iter
        (fun i ->
          T.on_data t ~seq:(S.of_int i);
          Hashtbl.replace received i ())
        arrivals;
      (* cum = first missing from 0. *)
      let rec first_missing i =
        if Hashtbl.mem received i then first_missing (i + 1) else i
      in
      let expected_cum = first_missing 0 in
      S.to_int (T.cum_ack t) = expected_cum
      && List.for_all
           (fun i ->
             T.received t (S.of_int i) = Hashtbl.mem received i)
           (List.init 110 Fun.id))

(* ------------------------------------------------------------------ *)
(* Differential testing against the frozen list-based reference
   implementation: random arrival streams with gaps, reorder and
   forward points replay through both trackers, and the cumulative ack,
   the full range list, the bounded SACK report (recency order
   included) and the counters must match exactly at every step.  A
   report is built after every step, so the pick's own pruning of the
   arrival entries runs between every two arrivals. *)

module TR = Rcv_tracker_ref

let block_ints (b : Packet.Header.sack_block) =
  (S.to_int b.Packet.Header.block_start, S.to_int b.Packet.Header.block_end)

let differential_tracker_run ~seed ~steps =
  let rng = Engine.Rng.create ~seed in
  let t = T.create ~max_blocks:4 ~deliver:ignore () in
  let r = TR.create ~max_blocks:4 () in
  let ok = ref true in
  let expect b = if not b then ok := false in
  for _ = 1 to steps do
    (match Engine.Rng.int rng 11 with
    | 10 ->
        (* Handover discontinuity: a [`Cut] migration drops the whole
           flight, so the next arrival lands hundreds of numbers beyond
           the highest seen — one giant hole opened in a single step,
           then filled (or forwarded past) by the later ops. *)
        let s =
          S.to_int (T.highest_expected t) + 200 + Engine.Rng.int rng 800
        in
        T.on_data t ~seq:(S.of_int s);
        TR.on_data r ~seq:(S.of_int s)
    | 8 ->
        let fwd = S.to_int (T.cum_ack t) + Engine.Rng.int rng 25 in
        T.apply_fwd_point t (S.of_int fwd);
        TR.apply_fwd_point r (S.of_int fwd)
    | _ ->
        let s = S.to_int (T.cum_ack t) + Engine.Rng.int rng 50 in
        T.on_data t ~seq:(S.of_int s);
        TR.on_data r ~seq:(S.of_int s));
    expect (S.equal (T.cum_ack t) (TR.cum_ack r));
    expect
      (List.map block_ints (T.all_ranges t)
      = List.map block_ints (TR.all_ranges r));
    expect
      (List.map block_ints (T.sack_blocks t)
      = List.map block_ints (TR.sack_blocks r));
    expect (T.duplicates t = TR.duplicates r);
    expect (T.packets t = TR.packets r)
  done;
  expect (S.equal (T.highest_expected t) (TR.highest_expected r));
  expect
    (List.map block_ints (T.sack_blocks t)
    = List.map block_ints (TR.sack_blocks r));
  let cum = S.to_int (T.cum_ack t) in
  let top = S.to_int (T.highest_expected t) in
  for i = Stdlib.max 0 (cum - 3) to top + 3 do
    expect (T.received t (S.of_int i) = TR.received r (S.of_int i))
  done;
  !ok

let prop_differential_vs_reference =
  QCheck.Test.make
    ~name:
      "run-length tracker matches the frozen reference (with handover jumps)"
    ~count:250
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 250))
    (fun (seed, steps) -> differential_tracker_run ~seed ~steps)

(* Wide windows against the same reference: every other number of
   [1, 200) arrives first, in a shuffled order (100 ranges), and then
   more such arrivals over a 300-number window keep 64 ranges and more
   among merges in the middle (the entries of the merged ranges die
   below the newest four, so the whole-list compaction runs), runs of
   arrivals extending the newest range (each replaces the newest entry),
   in-order arrivals and forward points, a quarter of which pass every
   range (emptying the entries).  The SACK report, the range list and
   the cumulative ack must match after every step.  Returns whether they
   did and the most ranges held at once. *)
let wide_window_run ~seed ~steps =
  let rng = Engine.Rng.create ~seed in
  let t = T.create ~max_blocks:4 ~deliver:ignore () in
  let r = TR.create ~max_blocks:4 () in
  let ok = ref true and most = ref 0 and last = ref 0 in
  let expect b = if not b then ok := false in
  let arrive s =
    last := s;
    T.on_data t ~seq:(S.of_int s);
    TR.on_data r ~seq:(S.of_int s)
  in
  let odd = Array.init 100 (fun j -> 1 + (2 * j)) in
  for j = 99 downto 1 do
    let k = Engine.Rng.int rng (j + 1) in
    let x = odd.(j) in
    odd.(j) <- odd.(k);
    odd.(k) <- x
  done;
  Array.iter arrive odd;
  most := T.ranges_held t;
  for _ = 1 to steps do
    let cum = S.to_int (T.cum_ack t) in
    let top = S.to_int (T.highest_expected t) in
    (match Engine.Rng.int rng 40 with
    | 0 ->
        let f =
          if Engine.Rng.int rng 4 = 0 then top + Engine.Rng.int rng 10
          else cum + Engine.Rng.int rng (((top - cum) / 4) + 1)
        in
        T.apply_fwd_point t (S.of_int f);
        TR.apply_fwd_point r (S.of_int f)
    | 1 -> arrive cum
    | 2 | 3 | 4 | 5 | 6 ->
        for _ = 1 to 1 + Engine.Rng.int rng 4 do
          arrive (!last + 1)
        done
    | 7 | 8 | 9 | 10 | 11 | 12 | 13 | 14 ->
        arrive (cum + (2 * (25 + Engine.Rng.int rng 100)))
    | _ -> arrive (cum + 1 + (2 * Engine.Rng.int rng 150)));
    most := Stdlib.max !most (T.ranges_held t);
    expect (S.equal (T.cum_ack t) (TR.cum_ack r));
    expect
      (List.map block_ints (T.all_ranges t)
      = List.map block_ints (TR.all_ranges r));
    expect
      (List.map block_ints (T.sack_blocks t)
      = List.map block_ints (TR.sack_blocks r))
  done;
  (!ok, !most)

let prop_wide_windows_vs_reference =
  QCheck.Test.make ~name:"wide windows match the frozen reference" ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let ok, most = wide_window_run ~seed ~steps:1_000 in
      if most < 64 then
        QCheck.Test.fail_reportf "only %d ranges held at most" most;
      ok)

(* A report costs the blocks it names, not the ranges held: 50,000
   ranges (every other number), then 50,000 rounds of one arrival
   extending the newest range and one report.  A scan of every range
   per report took 6 s of CPU here; the pick takes a few hundredths. *)
let test_report_cost_independent_of_ranges () =
  let n = 50_000 in
  let t0 = Sys.time () in
  let t = T.create ~deliver:ignore () in
  for i = 1 to n do
    T.on_data t ~seq:(S.of_int (2 * i))
  done;
  for k = 1 to n do
    T.on_data t ~seq:(S.of_int ((2 * n) + k));
    ignore (T.sack_blocks t : Packet.Header.sack_block list)
  done;
  let dt = Sys.time () -. t0 in
  Alcotest.(check int) "ranges held" n (T.ranges_held t);
  Alcotest.(check (list (pair int int)))
    "the newest four, newest first"
    [ (2 * n, (3 * n) + 1); ((2 * n) - 2, (2 * n) - 1);
      ((2 * n) - 4, (2 * n) - 3); ((2 * n) - 6, (2 * n) - 5) ]
    (List.map block_ints (T.sack_blocks t));
  if dt >= 0.5 then
    Alcotest.failf "%.3f s of CPU for %d reports over %d ranges (< 0.5 s)" dt
      n n

(* ------------------------------------------------------------------ *)
(* Delivery against the frozen hashtable reassembly: arrivals around the
   cumulative point (fresh, duplicate and stale numbers), forward points
   (some backwards), and 200–1,000-number jumps of both.  The numbers
   each step delivers, the delivered and skipped counts and the
   cumulative point must match at every step. *)

module RR = Reassembly_ref

let differential_delivery_run ~seed ~steps =
  let rng = Engine.Rng.create ~seed in
  let got = ref [] and want = ref [] in
  let t = T.create ~deliver:(fun s -> got := S.to_int s :: !got) () in
  let r =
    RR.create
      ~deliver:(fun ~seq ~size:_ -> want := S.to_int seq :: !want)
      ~on_gap:(fun ~skipped:_ -> ())
      ()
  in
  let ok = ref true in
  let step () =
    let cum = S.to_int (T.cum_ack t) in
    let jump () = 200 + Engine.Rng.int rng 801 in
    match Engine.Rng.int rng 20 with
    | 0 ->
        let s = S.to_int (T.highest_expected t) + jump () in
        T.on_data t ~seq:(S.of_int s);
        RR.on_data r ~seq:(S.of_int s) ~size:1
    | 1 ->
        let f = S.of_int (cum + jump ()) in
        T.apply_fwd_point t f;
        RR.apply_fwd_point r f
    | 2 | 3 | 4 ->
        let f = S.of_int (cum - 5 + Engine.Rng.int rng 30) in
        T.apply_fwd_point t f;
        RR.apply_fwd_point r f
    | _ ->
        let s = S.of_int (cum - 10 + Engine.Rng.int rng 60) in
        T.on_data t ~seq:s;
        RR.on_data r ~seq:s ~size:1
  in
  for _ = 1 to steps do
    got := [];
    want := [];
    step ();
    if
      !got <> !want
      || T.delivered t <> RR.delivered r
      || T.skipped t <> RR.skipped r
      || not (S.equal (T.cum_ack t) (RR.next_expected r))
    then ok := false
  done;
  !ok

let prop_delivery_vs_reassembly =
  QCheck.Test.make
    ~name:"delivery matches the frozen reassembly (with jumps)" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed -> differential_delivery_run ~seed ~steps:2_000)

(* Adversarial duplicate flood: build a maximally fragmented range list
   (every second number received), then replay the whole pattern many
   times over.  Duplicates must be counted and change nothing — the
   range count stays put, the SACK report stays bounded, and the
   cumulative ack does not move. *)
let test_duplicate_flood_bounded () =
  let n = 500 in
  let t = T.create ~deliver:ignore () in
  let evens = List.init n (fun i -> 2 * i) in
  feed t evens;
  (* 0 advanced the cum point; every later even opened a range. *)
  Alcotest.(check int) "one range per even arrival" (n - 1)
    (T.ranges_held t);
  let cum = S.to_int (T.cum_ack t) in
  let ranges = blocks_ints t in
  for _ = 1 to 10 do
    feed t evens
  done;
  Alcotest.(check int) "flood counted as duplicates" (10 * n)
    (T.duplicates t);
  Alcotest.(check int) "range count unchanged" (n - 1) (T.ranges_held t);
  Alcotest.(check int) "cum unchanged" cum (S.to_int (T.cum_ack t));
  Alcotest.(check (list (pair int int))) "ranges unchanged" ranges
    (blocks_ints t);
  Alcotest.(check int) "SACK report stays bounded" 4
    (List.length (T.sack_blocks t))

(* Out-of-order windows of eight: within each, arrivals open ranges,
   extend them at either end, merge two across a one-wide gap, and the
   in-order arrival that closes the window absorbs what is left.  After
   the first windows have grown the range arrays, none of it
   allocates. *)
let test_on_data_allocation () =
  let t = T.create ~deliver:ignore () in
  let order = [| 2; 3; 5; 4; 7; 6; 1; 0 |] in
  let n = 8_000 in
  let seqs =
    Array.init (2 * n) (fun i -> S.of_int ((i land -8) + order.(i land 7)))
  in
  let per_call =
    Test_tfrc_flow.words_per_call n (fun i -> T.on_data t ~seq:seqs.(i))
  in
  Alcotest.(check int) "every window delivered" (2 * n)
    (S.to_int (T.cum_ack t));
  Alcotest.(check int) "no duplicates" 0 (T.duplicates t);
  if per_call > 0.0 then
    Alcotest.failf "%.2f minor words per on_data (none allowed)" per_call

let suite =
  [
    Alcotest.test_case "in order" `Quick test_in_order;
    Alcotest.test_case "gap creates range" `Quick test_gap_creates_range;
    Alcotest.test_case "fill merges" `Quick test_fill_merges_back;
    Alcotest.test_case "multiple ranges" `Quick test_multiple_ranges_sorted;
    Alcotest.test_case "duplicates" `Quick test_duplicates_counted;
    Alcotest.test_case "duplicates leave state untouched" `Quick
      test_duplicates_leave_state_untouched;
    Alcotest.test_case "bug hook corrupts ranges" `Quick
      test_bug_hook_corrupts_ranges;
    Alcotest.test_case "sack recency order" `Quick
      test_sack_blocks_recency_first;
    Alcotest.test_case "received query" `Quick test_received_query;
    Alcotest.test_case "fwd point abandons" `Quick test_fwd_point_abandons;
    Alcotest.test_case "fwd point into range" `Quick test_fwd_point_into_range;
    Alcotest.test_case "fwd point backwards" `Quick
      test_fwd_point_backwards_ignored;
    Alcotest.test_case "O(1) cost per packet" `Quick test_cost_o1;
    Alcotest.test_case "duplicate flood bounded" `Quick
      test_duplicate_flood_bounded;
    Alcotest.test_case "on_data allocates nothing" `Quick
      test_on_data_allocation;
    QCheck_alcotest.to_alcotest prop_tracker_vs_reference;
    Alcotest.test_case "report cost independent of ranges" `Quick
      test_report_cost_independent_of_ranges;
    QCheck_alcotest.to_alcotest prop_differential_vs_reference;
    QCheck_alcotest.to_alcotest prop_wide_windows_vs_reference;
    QCheck_alcotest.to_alcotest prop_delivery_vs_reassembly;
  ]
