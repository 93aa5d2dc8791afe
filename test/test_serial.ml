(* Packet.Serial: wraparound arithmetic and circular ordering. *)

module S = Packet.Serial

let s = S.of_int

let test_basic_order () =
  Alcotest.(check bool) "0 < 1" true S.(s 0 < s 1);
  Alcotest.(check bool) "1 > 0" true S.(s 1 > s 0);
  Alcotest.(check bool) "5 <= 5" true S.(s 5 <= s 5);
  Alcotest.(check bool) "equal" true (S.equal (s 42) (s 42))

let test_wraparound_order () =
  let near_top = s 0xFFFFFFFF in
  let wrapped = S.succ near_top in
  Alcotest.(check int) "wraps to 0" 0 (S.to_int wrapped);
  Alcotest.(check bool) "max < wrapped 0" true S.(near_top < wrapped);
  Alcotest.(check int) "diff across wrap" 1 (S.diff wrapped near_top)

let test_succ_pred () =
  Alcotest.(check int) "succ" 8 (S.to_int (S.succ (s 7)));
  Alcotest.(check int) "pred" 6 (S.to_int (S.pred (s 7)));
  Alcotest.(check int) "pred of 0 wraps" 0xFFFFFFFF (S.to_int (S.pred (s 0)))

let test_add_diff_inverse () =
  let a = s 100 and b = s 250 in
  Alcotest.(check int) "diff" (-150) (S.diff a b);
  Alcotest.(check bool) "add inverse" true (S.equal (S.add b (S.diff a b)) a)

let test_min_max () =
  Alcotest.(check int) "max" 9 (S.to_int (S.max (s 4) (s 9)));
  Alcotest.(check int) "min" 4 (S.to_int (S.min (s 4) (s 9)));
  (* across the wrap: 0xFFFFFFFE < 1 circularly *)
  Alcotest.(check int) "max across wrap" 1
    (S.to_int (S.max (s 0xFFFFFFFE) (s 1)))

let test_range () =
  let range lo hi =
    let acc = ref [] in
    S.iter_range (fun x -> acc := S.to_int x :: !acc) (s lo) (s hi);
    List.rev !acc
  in
  Alcotest.(check (list int)) "simple range" [ 3; 4; 5 ] (range 3 6);
  Alcotest.(check (list int)) "empty range" [] (range 6 6);
  Alcotest.(check (list int)) "reversed empty" [] (range 7 6);
  Alcotest.(check (list int))
    "range across wrap"
    [ 0xFFFFFFFF; 0 ]
    (range 0xFFFFFFFF 1)

let test_to_string () =
  Alcotest.(check string) "print unsigned" "4294967295" (S.to_string (s 0xFFFFFFFF))

let prop_half_window_order =
  QCheck.Test.make ~name:"a < a+k for 0<k<2^31" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFF) (int_range 1 0x7FFFFFF))
    (fun (base, k) ->
      let a = s base in
      let b = S.add a k in
      S.( < ) a b && S.( > ) b a && S.diff b a = k)

let prop_add_assoc =
  QCheck.Test.make ~name:"add distributes" ~count:500
    QCheck.(triple (int_bound 0xFFFFFFFF) (int_bound 10000) (int_bound 10000))
    (fun (base, i, j) ->
      S.equal (S.add (S.add (s base) i) j) (S.add (s base) (i + j)))

let suite =
  [
    Alcotest.test_case "basic order" `Quick test_basic_order;
    Alcotest.test_case "wraparound" `Quick test_wraparound_order;
    Alcotest.test_case "succ/pred" `Quick test_succ_pred;
    Alcotest.test_case "add/diff inverse" `Quick test_add_diff_inverse;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "range" `Quick test_range;
    Alcotest.test_case "to_string" `Quick test_to_string;
    QCheck_alcotest.to_alcotest prop_half_window_order;
    QCheck_alcotest.to_alcotest prop_add_assoc;
  ]
