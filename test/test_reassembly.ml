(* In-order delivery from the receive window (Sack.Rcv_tracker):
   buffering, duplicates, forward points.  The cases of the hashtable
   reassembly it replaced, which lives on as test/reassembly_ref.ml. *)

module T = Sack.Rcv_tracker
module S = Packet.Serial

let make () =
  let delivered = ref [] in
  let t = T.create ~deliver:(fun seq -> delivered := S.to_int seq :: !delivered) () in
  (t, delivered)

let feed t xs = List.iter (fun i -> T.on_data t ~seq:(S.of_int i)) xs

(* Numbers received but not yet delivered. *)
let buffered t =
  List.fold_left
    (fun acc (b : Packet.Header.sack_block) ->
      acc + S.diff b.Packet.Header.block_end b.Packet.Header.block_start)
    0 (T.all_ranges t)

let test_in_order_immediate () =
  let t, delivered = make () in
  feed t [ 0; 1; 2 ];
  Alcotest.(check (list int)) "delivered in order" [ 0; 1; 2 ]
    (List.rev !delivered);
  Alcotest.(check int) "counter" 3 (T.delivered t);
  Alcotest.(check int) "nothing buffered" 0 (buffered t)

let test_out_of_order_buffers () =
  let t, delivered = make () in
  feed t [ 0; 2; 3 ];
  Alcotest.(check (list int)) "only prefix" [ 0 ] (List.rev !delivered);
  Alcotest.(check int) "buffered" 2 (buffered t);
  feed t [ 1 ];
  Alcotest.(check (list int)) "hole filled, drained" [ 0; 1; 2; 3 ]
    (List.rev !delivered);
  Alcotest.(check int) "buffer empty" 0 (buffered t)

let test_duplicates_dropped () =
  let t, delivered = make () in
  feed t [ 0; 0; 1; 1; 1 ];
  Alcotest.(check int) "two deliveries" 2 (List.length !delivered)

(* An exact duplicate of a still-buffered (out-of-order) segment must
   not double-deliver once the hole fills, and must not disturb the
   delivery counters the fuzz oracles key on. *)
let test_duplicate_of_buffered_segment () =
  let t, delivered = make () in
  feed t [ 0; 2; 2; 3; 2 ];
  Alcotest.(check int) "only the prefix so far" 1 (List.length !delivered);
  Alcotest.(check int) "buffer holds each segment once" 2 (buffered t);
  feed t [ 1 ];
  Alcotest.(check (list int)) "each delivered exactly once" [ 0; 1; 2; 3 ]
    (List.rev !delivered);
  Alcotest.(check int) "delivered counter" 4 (T.delivered t);
  Alcotest.(check int) "nothing skipped" 0 (T.skipped t)

let test_stale_dropped () =
  let t, delivered = make () in
  feed t [ 0; 1; 2 ];
  feed t [ 1 ];
  Alcotest.(check int) "stale ignored" 3 (List.length !delivered)

let test_fwd_point_skips_and_reports_gap () =
  let t, delivered = make () in
  feed t [ 0; 3; 4 ];
  T.apply_fwd_point t (S.of_int 3);
  Alcotest.(check (list int)) "buffered released after skip" [ 0; 3; 4 ]
    (List.rev !delivered);
  Alcotest.(check int) "skip counter" 2 (T.skipped t);
  Alcotest.(check int) "next expected" 5 (S.to_int (T.cum_ack t))

let test_fwd_point_delivers_buffered_inside_range () =
  let t, delivered = make () in
  feed t [ 0; 2 ];
  (* fwd to 3: hole at 1 abandoned, buffered 2 must be delivered. *)
  T.apply_fwd_point t (S.of_int 3);
  Alcotest.(check (list int)) "0 then 2" [ 0; 2 ] (List.rev !delivered);
  Alcotest.(check int) "one skipped" 1 (T.skipped t)

let test_fwd_point_noop_backwards () =
  let t, delivered = make () in
  feed t [ 0; 1 ];
  T.apply_fwd_point t (S.of_int 1);
  Alcotest.(check int) "unchanged" 2 (List.length !delivered);
  Alcotest.(check int) "next" 2 (S.to_int (T.cum_ack t))

let prop_full_delivery_when_everything_arrives =
  QCheck.Test.make
    ~name:"any arrival order delivers the full prefix in order" ~count:200
    QCheck.(list (int_bound 30))
    (fun perm_src ->
      let n = 20 in
      (* Build a permutation of 0..n-1 from the random list. *)
      let order =
        List.sort_uniq Int.compare (List.filter (fun x -> x < n) perm_src)
        @ List.filter
            (fun i ->
              not (List.mem i (List.filter (fun x -> x < n) perm_src)))
            (List.init n Fun.id)
      in
      let t, delivered = make () in
      feed t order;
      List.rev !delivered = List.init n Fun.id)

let suite =
  [
    Alcotest.test_case "in order" `Quick test_in_order_immediate;
    Alcotest.test_case "out of order buffers" `Quick test_out_of_order_buffers;
    Alcotest.test_case "duplicates" `Quick test_duplicates_dropped;
    Alcotest.test_case "duplicate of buffered segment" `Quick
      test_duplicate_of_buffered_segment;
    Alcotest.test_case "stale" `Quick test_stale_dropped;
    Alcotest.test_case "fwd skips + gap" `Quick
      test_fwd_point_skips_and_reports_gap;
    Alcotest.test_case "fwd delivers buffered" `Quick
      test_fwd_point_delivers_buffered_inside_range;
    Alcotest.test_case "fwd backwards noop" `Quick test_fwd_point_noop_backwards;
    QCheck_alcotest.to_alcotest prop_full_delivery_when_everything_arrives;
  ]
