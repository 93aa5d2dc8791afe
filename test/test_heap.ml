(* Heap_ref: ordering, stability of size accounting, qcheck sort. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty () =
  let h = Heap_ref.create ~compare:Int.compare in
  check_int "length" 0 (Heap_ref.length h);
  check_bool "is_empty" true (Heap_ref.is_empty h);
  Alcotest.(check (option int)) "min" None (Heap_ref.min h);
  Alcotest.(check (option int)) "pop" None (Heap_ref.pop_min h)

let test_ordering () =
  let h = Heap_ref.create ~compare:Int.compare in
  List.iter (Heap_ref.add h) [ 5; 1; 4; 1; 3; 9; 0 ];
  check_int "length" 7 (Heap_ref.length h);
  let drained = ref [] in
  let rec drain () =
    match Heap_ref.pop_min h with
    | Some x ->
        drained := x :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "sorted ascending" [ 0; 1; 1; 3; 4; 5; 9 ]
    (List.rev !drained)

let test_min_not_removed () =
  let h = Heap_ref.create ~compare:Int.compare in
  Heap_ref.add h 2;
  Heap_ref.add h 1;
  Alcotest.(check (option int)) "min" (Some 1) (Heap_ref.min h);
  check_int "length unchanged" 2 (Heap_ref.length h)

let test_clear () =
  let h = Heap_ref.create ~compare:Int.compare in
  List.iter (Heap_ref.add h) [ 3; 2; 1 ];
  Heap_ref.clear h;
  check_int "cleared" 0 (Heap_ref.length h);
  Heap_ref.add h 7;
  Alcotest.(check (option int)) "usable after clear" (Some 7) (Heap_ref.pop_min h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap_ref.create ~compare:Int.compare in
      List.iter (Heap_ref.add h) xs;
      let rec drain acc =
        match Heap_ref.pop_min h with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort Int.compare xs)

let prop_custom_order =
  QCheck.Test.make ~name:"heap honours custom compare (max-heap)" ~count:100
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap_ref.create ~compare:(fun a b -> Int.compare b a) in
      List.iter (Heap_ref.add h) xs;
      let rec drain acc =
        match Heap_ref.pop_min h with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort (fun a b -> Int.compare b a) xs)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "drains in order" `Quick test_ordering;
    Alcotest.test_case "min peeks" `Quick test_min_not_removed;
    Alcotest.test_case "clear" `Quick test_clear;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_custom_order;
  ]
