(* Packet.Runs against a model that keeps, for each position of
   [0, 256), whether it is covered and the tag of the run covering it.
   Random streams of add (with tags), remove, trim_below, drop_first
   and clear are replayed through both, and after every step the run
   list, each run's tag, [mem], [seek], [kth_from_top], [iter_gaps] and
   [length] must agree, as must the flag [remove] returns.  The streams
   open enough runs to grow the arrays and drop enough from the front
   to reclaim it.  Both kinds of set are driven: an untagged one adds
   with [cover], holds no tag array, and is compared on its runs
   alone. *)

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

let create ~tagged = if tagged then R.create () else R.create_untagged ()

(* [cover] is the model before the step: [remove]'s flag must say
   whether any position of [l, h) was covered. *)
let apply step t cover = function
  | Add (l, h, tag) -> if t.R.tagged then R.add t l h ~tag else R.cover t l h
  | Remove (l, h) ->
      let covered = ref false in
      for p = l to h - 1 do
        if cover.(p) <> None then covered := true
      done;
      if R.remove t l h <> !covered then fail step "remove's flag"
  | Trim_below x -> R.trim_below t x
  | Drop_first -> if R.length t > 0 then R.drop_first t
  | Clear -> R.clear t

(* An untagged set's runs, and the model's, read tag 0. *)
let runs_of_set t =
  List.init (R.length t) (fun k ->
      let i = t.R.fst + k in
      (t.R.lo.(i), t.R.hi.(i), if t.R.tagged then t.R.tag.(i) else 0))

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
  let runs =
    if t.R.tagged then runs else List.map (fun (l, h, _) -> (l, h, 0)) runs
  in
  if runs_of_set t <> runs then fail step "run list or tags differ";
  if (not t.R.tagged) && Array.length t.R.tag > 0 then
    fail step "an untagged set holds a tag array";
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
   reclaimed the dead front.  An edit on the front side lowers [fst] by
   one at most, so a fall from 2 or more to 0 is a reclamation. *)
let replay ~tagged reach ops =
  let t = create ~tagged and cover = Array.make universe None in
  List.iteri
    (fun step op ->
      let cap = Array.length t.R.lo and fst = t.R.fst in
      apply step t cover op;
      model_step cover op;
      if Array.length t.R.lo > cap then reach.grew <- reach.grew + 1
      else if fst > 1 && t.R.fst = 0 && op <> Clear then
        reach.reclaimed <- reach.reclaimed + 1;
      check_agree step t cover)
    ops;
  true

let prop_matches_model ~tagged =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "random streams match the model (%s)"
         (if tagged then "tagged" else "untagged"))
    ~count:200 arb_stream
    (replay ~tagged { grew = 0; reclaimed = 0 })

(* The streams the property draws must reach both array edits that move
   indices: growth and front reclamation. *)
let test_streams_reach_growth_and_reclamation () =
  let rand = Random.State.make [| 42 |] in
  let reach = { grew = 0; reclaimed = 0 } in
  for _ = 1 to 50 do
    ignore
      (replay ~tagged:true reach
         (QCheck.Gen.generate1 ~rand (QCheck.gen arb_stream)))
  done;
  if reach.grew = 0 then Alcotest.fail "no stream grew the arrays";
  if reach.reclaimed = 0 then Alcotest.fail "no stream reclaimed the front"

(* Every other position of [0, 120) covered, 60 runs, then the lowest
   10 dropped, leaving a dead front.  An edit moves the shorter side:
   near the front the runs below it, so [fst] moves (a merge or a
   deletion advances it, a split or an insertion takes a dead slot);
   near the back the runs above it, so [fst] stays.  The model is
   checked after every step, on both kinds of set. *)
let test_edits_move_the_shorter_side () =
  List.iter
    (fun tagged ->
      let t = create ~tagged and cover = Array.make universe None in
      let step = ref 0 in
      let run op =
        apply !step t cover op;
        model_step cover op;
        check_agree !step t cover;
        incr step
      in
      let moves what d op =
        let fst = t.R.fst in
        run op;
        if t.R.fst - fst <> d then
          Alcotest.failf "%s (%s): fst moved by %d, not %d" what
            (pp_op op) (t.R.fst - fst) d
      in
      for k = 0 to 59 do
        run (Add (2 * k, (2 * k) + 1, k))
      done;
      for _ = 1 to 10 do
        run Drop_first
      done;
      (* the live runs are [20, 21), [22, 23), ..., [118, 119) *)
      moves "front merge" 1 (Add (23, 24, 500));
      moves "front split" (-1) (Remove (23, 24));
      moves "front delete" 1 (Remove (24, 25));
      moves "front insert" (-1) (Add (24, 25, 501));
      moves "back merge" 0 (Add (115, 116, 502));
      moves "back split" 0 (Remove (115, 116));
      moves "back delete" 0 (Remove (116, 117));
      moves "back insert" 0 (Add (116, 117, 503)))
    [ true; false ]

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
    Alcotest.test_case "edits move the shorter side" `Quick
      test_edits_move_the_shorter_side;
    QCheck_alcotest.to_alcotest (prop_matches_model ~tagged:true);
    QCheck_alcotest.to_alcotest (prop_matches_model ~tagged:false);
  ]
