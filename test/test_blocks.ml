(* Sack.Blocks: construction. *)

module B = Sack.Blocks
module S = Packet.Serial

let blk a b = B.make (S.of_int a) (S.of_int b)

let test_make_rejects_empty () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (blk 5 5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "reversed rejected" true
    (try
       ignore (blk 6 5);
       false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "make rejects empty" `Quick test_make_rejects_empty ]
