(* Engine.Pool.map: submission-order results, lanes and stealing,
   exceptions, determinism across jobs counts. *)

module Pool = Engine.Pool

let test_map_order () =
  let r = Pool.map ~jobs:4 (fun x -> x * x) (Array.init 100 Fun.id) in
  Alcotest.(check (array int))
    "squares in submission order"
    (Array.init 100 (fun i -> i * i))
    r

let test_map_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 succ [||]);
  Alcotest.(check (array int))
    "single" [| 42 |]
    (Pool.map ~jobs:4 succ [| 41 |])

let test_jobs_one_is_sequential () =
  let order = ref [] in
  let r =
    Pool.map ~jobs:1
      (fun x ->
        order := x :: !order;
        x + 1)
      (Array.init 10 Fun.id)
  in
  Alcotest.(check (array int)) "results" (Array.init 10 succ) r;
  (* With one worker tasks run inline, in submission order. *)
  Alcotest.(check (list int))
    "execution order" (List.init 10 Fun.id) (List.rev !order)

let test_more_jobs_than_tasks () =
  let r = Pool.map ~jobs:8 (fun x -> 2 * x) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "all tasks ran once" [| 2; 4; 6 |] r

(* A batch smaller than [jobs] gets one lane and one worker per task,
   not one per job.  The tasks are slow enough that every worker is
   busy at once, and several rounds tighten the check. *)
let test_small_batch_busy_tasks () =
  for round = 1 to 5 do
    let r =
      Pool.map ~jobs:8
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
  done

(* The claim order the experiment suite's wall time rests on: with two
   workers over four tasks, worker 1 starts at task 2 while the caller
   is still in tasks 0 and 1.  A single shared counter would hand out
   tasks 0 and 1 first, and both would spin out their budget. *)
let test_workers_start_own_lane () =
  let task2 = Atomic.make false in
  let saw =
    Pool.map ~jobs:2
      (fun i ->
        if i = 2 then Atomic.set task2 true;
        let deadline = Sys.time () +. 1.0 in
        while (not (Atomic.get task2)) && Sys.time () < deadline do
          Domain.cpu_relax ()
        done;
        Atomic.get task2)
      (Array.init 4 Fun.id)
  in
  Alcotest.(check (pair bool bool))
    "tasks 0 and 1 saw task 2 start" (true, true) (saw.(0), saw.(1))

let test_exception_lowest_index () =
  Alcotest.check_raises "lowest failing index wins" (Failure "boom-3")
    (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i ->
             if i = 3 || i >= 7 then failwith (Printf.sprintf "boom-%d" i)
             else i)
           (Array.init 12 Fun.id)))

(* The other half of the exception contract: a failure re-raises only
   after every task has run, each exactly once. *)
let test_exception_after_every_task () =
  let runs = Array.init 12 (fun _ -> Atomic.make 0) in
  Alcotest.check_raises "lowest failing index wins" (Failure "boom-3")
    (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i ->
             Atomic.incr runs.(i);
             if i = 3 || i = 7 then failwith (Printf.sprintf "boom-%d" i))
           (Array.init 12 Fun.id)));
  Alcotest.(check (array int))
    "every task ran once" (Array.make 12 1) (Array.map Atomic.get runs)

let test_jobs_zero_refused () =
  let refused xs =
    match Pool.map ~jobs:0 succ xs with
    | (_ : int array) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "three tasks" true (refused [| 1; 2; 3 |]);
  Alcotest.(check bool) "empty batch" true (refused [||])

(* Uneven task durations force lane stealing: the first lane carries
   almost all the work, so with 4 workers somebody must cross lanes for
   the batch to finish.  Correctness here is results-at-their-index. *)
let test_uneven_durations () =
  let spin_until_prime i =
    (* A little real work, heavier for small indices. *)
    let rounds = if i < 4 then 20_000 else 10 in
    let acc = ref 0 in
    for k = 1 to rounds do
      acc := (!acc + (k * i)) mod 1_000_003
    done;
    (i, !acc land 0)
  in
  let r = Pool.map ~jobs:4 spin_until_prime (Array.init 64 Fun.id) in
  Array.iteri
    (fun i (j, z) ->
      Alcotest.(check int) "index preserved" i j;
      Alcotest.(check int) "payload" 0 z)
    r

(* The determinism contract end-to-end: per-task streams come from
   Rng.derive keyed by index, so the fan-out result is a pure function
   of (seed, index) — identical at any jobs count. *)
let test_deterministic_across_jobs () =
  let run ~jobs =
    let root = Engine.Rng.create ~seed:2026 in
    Pool.map ~jobs
      (fun i ->
        let rng = Engine.Rng.derive root ~key:i in
        let acc = ref 0L in
        for _ = 1 to 100 do
          acc := Int64.add !acc (Engine.Rng.bits64 rng)
        done;
        !acc)
      (Array.init 32 Fun.id)
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
      Pool.map ~jobs f xs = Array.map f xs)

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
    Alcotest.test_case "each worker starts its own lane" `Quick
      test_workers_start_own_lane;
    Alcotest.test_case "lowest-index exception propagates" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "exception re-raised after every task ran" `Quick
      test_exception_after_every_task;
    Alcotest.test_case "jobs = 0 is refused" `Quick test_jobs_zero_refused;
    Alcotest.test_case "uneven durations (stealing)" `Quick
      test_uneven_durations;
    Alcotest.test_case "derive-keyed fan-out deterministic" `Quick
      test_deterministic_across_jobs;
    Alcotest.test_case "worker count: at least 1, clamped to 128" `Quick
      test_jobs_of_string;
    QCheck_alcotest.to_alcotest prop_map_is_array_map;
  ]
