(* Engine.Pool: submission-order results, stealing, exceptions,
   determinism across jobs counts. *)

module Pool = Engine.Pool

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let r = Pool.map p (fun x -> x * x) (Array.init 100 Fun.id) in
      Alcotest.(check (array int))
        "squares in submission order"
        (Array.init 100 (fun i -> i * i))
        r)

let test_map_empty_and_single () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map p succ [||]);
      Alcotest.(check (array int)) "single" [| 42 |] (Pool.map p succ [| 41 |]))

let test_jobs_one_is_sequential () =
  Pool.with_pool ~jobs:1 (fun p ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs p);
      let order = ref [] in
      let r =
        Pool.map p
          (fun x ->
            order := x :: !order;
            x + 1)
          (Array.init 10 Fun.id)
      in
      Alcotest.(check (array int)) "results" (Array.init 10 succ) r;
      (* With one worker tasks run inline, in submission order. *)
      Alcotest.(check (list int))
        "execution order" (List.init 10 Fun.id) (List.rev !order))

let test_more_jobs_than_tasks () =
  Pool.with_pool ~jobs:8 (fun p ->
      let r = Pool.map p (fun x -> 2 * x) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "all tasks ran once" [| 2; 4; 6 |] r)

(* Regression: when the batch is smaller than the pool, a worker's home
   index exceeds the batch's lane count and must fold onto a real lane
   instead of indexing out of bounds.  The tasks are slow enough that
   the spare domains wake while the batch is still live — the crash was
   a race, so several rounds tighten the repro. *)
let test_small_batch_busy_tasks () =
  Pool.with_pool ~jobs:8 (fun p ->
      for round = 1 to 5 do
        let r =
          Pool.map p
            (fun x ->
              let s = ref 0 in
              for i = 1 to 2_000_000 do
                s := !s + (i land x)
              done;
              !s)
            [| 1; 3; 7 |]
        in
        Alcotest.(check int)
          (Printf.sprintf "round %d: three results" round)
          3 (Array.length r)
      done)

let test_tabulate_and_map_list () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check (array int))
        "tabulate" [| 0; 10; 20; 30 |]
        (Pool.tabulate p 4 (fun i -> 10 * i));
      Alcotest.(check (list string))
        "map_list keeps order" [ "a!"; "b!"; "c!" ]
        (Pool.map_list p (fun s -> s ^ "!") [ "a"; "b"; "c" ]))

let test_pool_reusable () =
  Pool.with_pool ~jobs:4 (fun p ->
      let a = Pool.map p succ (Array.init 50 Fun.id) in
      let b = Pool.map p pred (Array.init 50 Fun.id) in
      Alcotest.(check (array int)) "first batch" (Array.init 50 succ) a;
      Alcotest.(check (array int)) "second batch" (Array.init 50 pred) b)

let test_exception_lowest_index () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.check_raises "lowest failing index wins" (Failure "boom-3")
        (fun () ->
          ignore
            (Pool.map p
               (fun i ->
                 if i = 3 || i >= 7 then
                   failwith (Printf.sprintf "boom-%d" i)
                 else i)
               (Array.init 12 Fun.id))))

(* Uneven task durations force lane stealing: the first lane carries
   almost all the work, so with 4 workers somebody must cross lanes for
   the batch to finish.  Correctness here is results-at-their-index. *)
let test_uneven_durations () =
  Pool.with_pool ~jobs:4 (fun p ->
      let spin_until_prime i =
        (* A little real work, heavier for small indices. *)
        let rounds = if i < 4 then 20_000 else 10 in
        let acc = ref 0 in
        for k = 1 to rounds do
          acc := (!acc + (k * i)) mod 1_000_003
        done;
        (i, !acc land 0)
      in
      let r = Pool.map p spin_until_prime (Array.init 64 Fun.id) in
      Array.iteri
        (fun i (j, z) ->
          Alcotest.(check int) "index preserved" i j;
          Alcotest.(check int) "payload" 0 z)
        r)

(* The determinism contract end-to-end: per-task streams come from
   Rng.derive keyed by index, so the fan-out result is a pure function
   of (seed, index) — identical at any jobs count. *)
let test_deterministic_across_jobs () =
  let run ~jobs =
    let root = Engine.Rng.create ~seed:2026 in
    Pool.with_pool ~jobs (fun p ->
        Pool.tabulate p 32 (fun i ->
            let rng = Engine.Rng.derive root ~key:i in
            let acc = ref 0L in
            for _ = 1 to 100 do
              acc := Int64.add !acc (Engine.Rng.bits64 rng)
            done;
            !acc))
  in
  let seq = run ~jobs:1 and par = run ~jobs:4 in
  Alcotest.(check (array int64)) "jobs 1 = jobs 4" seq par

(* The worker-count rule the CLIs read --jobs and VTP_JOBS through. *)
let test_jobs_of_string () =
  let check s want =
    Alcotest.(check (result int string)) s want
      (match Pool.jobs_of_string s with
      | Ok j -> Ok j
      | Error _ -> Error "refused")
  in
  check "1" (Ok 1);
  check " 4 " (Ok 4);
  check "128" (Ok 128);
  check "500" (Ok 128);
  check "0" (Error "refused");
  check "-2" (Error "refused");
  check "abc" (Error "refused");
  check "" (Error "refused")

let prop_map_is_array_map =
  QCheck.Test.make ~name:"map = Array.map at any jobs" ~count:50
    QCheck.(pair (int_range 1 6) (list small_int))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      let f x = (x * 31) + 7 in
      Pool.with_pool ~jobs (fun p -> Pool.map p f xs) = Array.map f xs)

let suite =
  [
    Alcotest.test_case "map preserves submission order" `Quick test_map_order;
    Alcotest.test_case "empty and single arrays" `Quick
      test_map_empty_and_single;
    Alcotest.test_case "jobs=1 runs inline sequentially" `Quick
      test_jobs_one_is_sequential;
    Alcotest.test_case "more jobs than tasks" `Quick test_more_jobs_than_tasks;
    Alcotest.test_case "small batch under a big pool" `Quick
      test_small_batch_busy_tasks;
    Alcotest.test_case "tabulate and map_list" `Quick
      test_tabulate_and_map_list;
    Alcotest.test_case "pool survives multiple batches" `Quick
      test_pool_reusable;
    Alcotest.test_case "lowest-index exception propagates" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "uneven durations (stealing)" `Quick
      test_uneven_durations;
    Alcotest.test_case "derive-keyed fan-out deterministic" `Quick
      test_deterministic_across_jobs;
    Alcotest.test_case "worker count: at least 1, clamped to 128" `Quick
      test_jobs_of_string;
    QCheck_alcotest.to_alcotest prop_map_is_array_map;
  ]
