(* Packet.Runs against a model that keeps, for each position of
   [0, 256), whether it is covered and the tag of the run covering it.
   Random streams of add (with tags), remove, trim_below, drop_first
   and clear are replayed through both, and after every step the run
   list, each run's tag, [mem], [seek], [kth_from_top], [iter_gaps] and
   [length] must agree, as must the flag [remove] returns.  The streams
   open enough runs to grow the arrays and drop enough from the front
   to reclaim it. *)

module R = Packet.Runs

let universe = 256

type op =
  | Add of int * int * int
  | Remove of int * int
  | Trim_below of int
  | Drop_first
  | Clear

let pp_op = function
  | Add (l, h, tag) -> Printf.sprintf "add %d %d ~tag:%d" l h tag
  | Remove (l, h) -> Printf.sprintf "remove %d %d" l h
  | Trim_below x -> Printf.sprintf "trim_below %d" x
  | Drop_first -> "drop_first"
  | Clear -> "clear"

let gen_op =
  let open QCheck.Gen in
  let span = pair (int_bound (universe - 1)) (int_range 1 4) in
  frequency
    [
      ( 30,
        map2
          (fun (l, w) tag -> Add (l, Stdlib.min universe (l + w), tag))
          span (int_bound 999) );
      (10, map (fun (l, w) -> Remove (l, Stdlib.min universe (l + w))) span);
      (5, return Drop_first);
      (2, map (fun x -> Trim_below x) (int_bound (universe - 1)));
      (1, return Clear);
    ]

let arb_stream =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 50 400) gen_op)

(* The model: [cover.(p)] is the tag of the run covering [p]. *)
let runs_of cover =
  let rec go p acc =
    if p >= universe then List.rev acc
    else
      match cover.(p) with
      | None -> go (p + 1) acc
      | Some tag ->
          let q = ref p in
          while !q < universe && cover.(!q) <> None do
            incr q
          done;
          go !q ((p, !q, tag) :: acc)
  in
  go 0 []

let fill cover l h v =
  for p = l to h - 1 do
    cover.(p) <- v
  done

let model_step cover = function
  | Add (l, h, tag) ->
      fill cover l h (Some tag);
      (* the coalesced run, touching neighbours included, takes the tag *)
      let a = ref l and b = ref h in
      while !a > 0 && cover.(!a - 1) <> None do
        decr a
      done;
      while !b < universe && cover.(!b) <> None do
        incr b
      done;
      fill cover !a !b (Some tag)
  | Remove (l, h) -> fill cover l h None
  | Trim_below x -> fill cover 0 x None
  | Drop_first -> (
      match runs_of cover with
      | (l, h, _) :: _ -> fill cover l h None
      | [] -> ())
  | Clear -> fill cover 0 universe None

let fail step what = QCheck.Test.fail_reportf "step %d: %s" step what

(* [cover] is the model before the step: [remove]'s flag must say
   whether any position of [l, h) was covered. *)
let apply step t cover = function
  | Add (l, h, tag) -> R.add t l h ~tag
  | Remove (l, h) ->
      let covered = ref false in
      for p = l to h - 1 do
        if cover.(p) <> None then covered := true
      done;
      if R.remove t l h <> !covered then fail step "remove's flag"
  | Trim_below x -> R.trim_below t x
  | Drop_first -> if R.length t > 0 then R.drop_first t
  | Clear -> R.clear t

let runs_of_set t =
  List.init (R.length t) (fun k ->
      let i = t.R.fst + k in
      (t.R.lo.(i), t.R.hi.(i), t.R.tag.(i)))

let gaps_of_set t l h =
  let acc = ref [] in
  R.iter_gaps t l h (fun gl gh -> acc := (gl, gh) :: !acc);
  List.rev !acc

let model_gaps cover l h =
  let acc = ref [] and p = ref l in
  while !p < h do
    if cover.(!p) = None then begin
      let q = ref !p in
      while !q < h && cover.(!q) = None do
        incr q
      done;
      acc := (!p, !q) :: !acc;
      p := !q
    end
    else incr p
  done;
  List.rev !acc

let check_agree step t cover =
  let runs = runs_of cover in
  if runs_of_set t <> runs then fail step "run list or tags differ";
  if R.length t <> List.length runs then fail step "length";
  for x = -1 to universe do
    let covered = x >= 0 && x < universe && cover.(x) <> None in
    if R.mem t x <> covered then fail step (Printf.sprintf "mem %d" x);
    let before = List.length (List.filter (fun (_, h, _) -> h <= x) runs) in
    if R.seek t x - t.R.fst <> before then
      fail step (Printf.sprintf "seek %d" x)
  done;
  let points =
    List.rev
      (List.filter (fun p -> cover.(p) <> None) (List.init universe Fun.id))
  in
  List.iteri
    (fun k p ->
      if R.kth_from_top t (k + 1) <> p then
        fail step (Printf.sprintf "kth_from_top %d" (k + 1)))
    points;
  if R.kth_from_top t (List.length points + 1) <> min_int then
    fail step "kth_from_top past the covered points";
  List.iter
    (fun (l, h) ->
      if gaps_of_set t l h <> model_gaps cover l h then
        fail step (Printf.sprintf "iter_gaps %d %d" l h))
    [ (0, universe); (17, 18); (40, 200) ]

type reach = { mutable grew : int; mutable reclaimed : int }

(* Replay [ops] through a set and the model, checking agreement after
   every step; counts the steps that grew the arrays and the ones that
   reclaimed the dead front. *)
let replay reach ops =
  let t = R.create () and cover = Array.make universe None in
  List.iteri
    (fun step op ->
      let cap = Array.length t.R.lo and fst = t.R.fst in
      apply step t cover op;
      model_step cover op;
      if Array.length t.R.lo > cap then reach.grew <- reach.grew + 1
      else if fst > 0 && t.R.fst = 0 && op <> Clear then
        reach.reclaimed <- reach.reclaimed + 1;
      check_agree step t cover)
    ops;
  true

let prop_matches_model =
  QCheck.Test.make ~name:"random streams match the model" ~count:200
    arb_stream
    (replay { grew = 0; reclaimed = 0 })

(* The streams the property draws must reach both array edits that move
   indices: growth and front reclamation. *)
let test_streams_reach_growth_and_reclamation () =
  let rand = Random.State.make [| 42 |] in
  let reach = { grew = 0; reclaimed = 0 } in
  for _ = 1 to 50 do
    ignore (replay reach (QCheck.Gen.generate1 ~rand (QCheck.gen arb_stream)))
  done;
  if reach.grew = 0 then Alcotest.fail "no stream grew the arrays";
  if reach.reclaimed = 0 then Alcotest.fail "no stream reclaimed the front"

let test_empty_until_first_insertion () =
  let t = R.create () in
  Alcotest.(check int) "no arrays" 0 (Array.length t.R.lo);
  R.add t 3 5 ~tag:7;
  Alcotest.(check (list (triple int int int))) "one run" [ (3, 5, 7) ]
    (runs_of_set t)

let suite =
  [
    Alcotest.test_case "empty until first insertion" `Quick
      test_empty_until_first_insertion;
    Alcotest.test_case "streams reach growth and reclamation" `Quick
      test_streams_reach_growth_and_reclamation;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
