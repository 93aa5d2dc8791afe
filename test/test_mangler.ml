(* Properties of the fault-injection stage: frame conservation,
   seed-determinism and the bounded reorder distance promised by
   [reorder_max_hold]. *)

module M = Netsim.Mangler
module F = Netsim.Frame

let mk_frame i =
  F.make ~uid:(F.fresh_uid ()) ~flow_id:0 ~size:1000 (F.Raw i)

(* Identify an emission by the id baked into its body (uids differ for
   duplicates) and whether the mangler wrapped it. *)
let source_id (f : F.t) =
  match f.F.body with
  | F.Raw i -> (i, false)
  | M.Corrupted (F.Raw i) -> (i, true)
  | _ -> Alcotest.fail "unexpected frame body out of the mangler"

(* Push [n] frames through a fresh mangler and return the emissions in
   order, plus the mangler for stats inspection. *)
let run_pipeline ~seed ~n prof =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let m = M.create ~sim ~rng prof in
  let out = ref [] in
  let emit f = out := f :: !out in
  for i = 0 to n - 1 do
    M.push m ~emit (mk_frame i)
  done;
  M.flush m;
  (List.rev !out, m)

let any_prof ~pr ~pd ~pc ~hold =
  M.profile ~p_reorder:pr ~reorder_max_hold:hold ~p_duplicate:pd ~p_corrupt:pc
    ()

(* Generator: seed, frame count and a fault mix aggressive enough to
   exercise every branch. *)
let arb_setup =
  QCheck.make
    ~print:(fun (seed, n, pr, pd, pc, hold) ->
      Printf.sprintf "seed=%d n=%d reorder=%.2f dup=%.2f corrupt=%.2f hold=%d"
        seed n pr pd pc hold)
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let* n = int_range 5 150 in
      let* pr = float_bound_inclusive 0.4 in
      let* pd = float_bound_inclusive 0.3 in
      let* pc = float_bound_inclusive 0.3 in
      let* hold = int_range 1 8 in
      return (seed, n, pr, pd, pc, hold))

(* Conservation: every input id comes out at least once, duplicates add
   exactly [stats.duplicated] extra emissions, and uids never repeat. *)
let prop_conservation =
  QCheck.Test.make ~name:"mangler conserves frames" ~count:200 arb_setup
    (fun (seed, n, pr, pd, pc, hold) ->
      let out, m = run_pipeline ~seed ~n (any_prof ~pr ~pd ~pc ~hold) in
      let st = M.stats m in
      let ids = Hashtbl.create 64 in
      List.iter
        (fun f ->
          let i, _ = source_id f in
          Hashtbl.replace ids i
            (1 + Option.value (Hashtbl.find_opt ids i) ~default:0))
        out;
      let all_present =
        List.init n Fun.id |> List.for_all (Hashtbl.mem ids)
      in
      let uids = List.map (fun f -> f.F.uid) out in
      let distinct_uids =
        List.length (List.sort_uniq Int.compare uids) = List.length uids
      in
      all_present
      && List.length out = n + st.M.duplicated
      && distinct_uids
      && M.held_frames m = 0)

(* Determinism: same seed, same arrivals => identical emission sequence
   (by source id and corruption flag) and identical stats. *)
let prop_determinism =
  QCheck.Test.make ~name:"mangler is seed-deterministic" ~count:100 arb_setup
    (fun (seed, n, pr, pd, pc, hold) ->
      let prof = any_prof ~pr ~pd ~pc ~hold in
      let trace run = List.map source_id (fst run) in
      let a = run_pipeline ~seed ~n prof in
      let b = run_pipeline ~seed ~n prof in
      let sa = M.stats (snd a) and sb = M.stats (snd b) in
      trace a = trace b
      && sa.M.passed = sb.M.passed
      && sa.M.reordered = sb.M.reordered
      && sa.M.duplicated = sb.M.duplicated
      && sa.M.corrupted = sb.M.corrupted)

(* Bounded reorder distance: no frame is overtaken by more than
   [reorder_max_hold] later arrivals.  Count, for each original frame's
   first emission, how many higher-id frames appear earlier. *)
let prop_bounded_reorder =
  QCheck.Test.make ~name:"mangler bounds reorder distance" ~count:200
    arb_setup (fun (seed, n, pr, pd, pc, hold) ->
      let out, _ = run_pipeline ~seed ~n (any_prof ~pr ~pd ~pc ~hold) in
      let first_emission_ids =
        let seen = Hashtbl.create 64 in
        List.filter_map
          (fun f ->
            let i, _ = source_id f in
            if Hashtbl.mem seen i then None
            else begin
              Hashtbl.add seen i ();
              Some i
            end)
          out
      in
      (* [i]'s overtakers are the earlier first-emissions with a larger
         arrival id; each must number at most [hold]. *)
      let emitted_before = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun i ->
          let overtakers =
            Hashtbl.fold
              (fun j () acc -> if j > i then acc + 1 else acc)
              emitted_before 0
          in
          if overtakers > hold then ok := false;
          Hashtbl.replace emitted_before i ())
        first_emission_ids;
      !ok)

(* The quiet-period flush timer releases held frames when traffic
   stops, so nothing is stranded. *)
let test_flush_timer () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let m = M.create ~sim ~rng (any_prof ~pr:1.0 ~pd:0.0 ~pc:0.0 ~hold:5) in
  let out = ref [] in
  let emit f = out := f :: !out in
  M.push m ~emit (mk_frame 0);
  Alcotest.(check int) "held" 1 (M.held_frames m);
  Engine.Sim.run ~until:1.0 sim;
  Alcotest.(check int) "released by timer" 0 (M.held_frames m);
  Alcotest.(check int) "emitted" 1 (List.length !out)

let test_transparent () =
  let out, m = run_pipeline ~seed:3 ~n:50 M.none in
  let st = M.stats m in
  Alcotest.(check int) "all passed" 50 st.M.passed;
  Alcotest.(check (list int)) "in order"
    (List.init 50 Fun.id)
    (List.map (fun f -> fst (source_id f)) out)

let suite =
  [
    Alcotest.test_case "transparent profile" `Quick test_transparent;
    Alcotest.test_case "flush timer" `Quick test_flush_timer;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_determinism;
    QCheck_alcotest.to_alcotest prop_bounded_reorder;
  ]
