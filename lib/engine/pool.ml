(* Work-stealing over lanes of an index range.

   A batch of [n] tasks is the integer range [0, n): it is split into
   [jobs] contiguous lanes, one per worker, each guarded by an atomic
   cursor.  Claiming is [Atomic.fetch_and_add] on a lane's cursor —
   the same operation for the owner and for a thief — so the fast path
   is one uncontended atomic per task and stealing needs no deque
   machinery: a worker that drains its own lane walks the other lanes
   and claims from whichever still has indices left.  A cursor may
   overshoot its lane bound by a few failed probes; claims past the
   bound are simply discarded.

   Results land in a per-batch array at the task's own index, so
   completion order never shows: the caller reads submission order.
   The per-task completion count is the only cross-domain rendezvous;
   its final fetch-and-add wakes the caller.

   Workers are long-lived and batches are handed over under a mutex +
   condition pair.  Each worker remembers the generation of the last
   batch it ran so a slow worker cannot re-enter a finished batch. *)

type batch = {
  b_gen : int;
  size : int;
  lanes : int;
  cursors : int Atomic.t array;
  bounds : int array;  (* lane upper limits; lane l covers [cursor_l0, bounds l) *)
  exec : int -> unit;  (* run task i; must not raise *)
  completed : int Atomic.t;
}

type t = {
  n_jobs : int;
  lock : Mutex.t;
  work : Condition.t;  (* a new batch was installed, or shutdown began *)
  idle : Condition.t;  (* the last task of the current batch finished *)
  mutable batch : batch option;
  mutable gen : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

let max_jobs = 128

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some j when j >= 1 -> Ok (Stdlib.min j max_jobs)
  | Some _ | None ->
      Error (Printf.sprintf "%S is not an integer of at least 1" s)

let default_jobs () =
  match Sys.getenv_opt "VTP_JOBS" with
  | Some s -> (
      match jobs_of_string s with
      | Ok j -> j
      | Error msg -> invalid_arg ("VTP_JOBS: " ^ msg))
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())

let jobs t = t.n_jobs

let finish_task t b =
  if Atomic.fetch_and_add b.completed 1 = b.size - 1 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.idle;
    Mutex.unlock t.lock
  end

(* Drain one lane to its bound.  Owner and thief run the same code. *)
let drain_lane t b lane =
  let cursor = b.cursors.(lane) in
  let bound = b.bounds.(lane) in
  let rec go () =
    if Atomic.get cursor < bound then begin
      let i = Atomic.fetch_and_add cursor 1 in
      if i < bound then begin
        b.exec i;
        finish_task t b;
        go ()
      end
    end
  in
  go ()

let run_batch t b ~home =
  (* A worker's home index can exceed the lane count when the batch is
     smaller than the pool: fold it onto a real lane.  Cursors are
     shared atomics, so two workers draining one lane is mere
     contention, never double execution. *)
  let home = home mod b.lanes in
  drain_lane t b home;
  for off = 1 to b.lanes - 1 do
    drain_lane t b ((home + off) mod b.lanes)
  done

let worker_loop t ~home =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    let rec await () =
      if t.stopping then None
      else
        match t.batch with
        | Some b when b.b_gen > !seen -> Some b
        | Some _ | None ->
            Condition.wait t.work t.lock;
            await ()
    in
    let job = await () in
    Mutex.unlock t.lock;
    match job with
    | None -> running := false
    | Some b ->
        seen := b.b_gen;
        run_batch t b ~home
  done

let create ?jobs () =
  let n_jobs = match jobs with Some j -> j | None -> default_jobs () in
  if n_jobs < 1 then invalid_arg "Engine.Pool.create: jobs < 1";
  let t =
    {
      n_jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      batch = None;
      gen = 0;
      stopping = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (n_jobs - 1) (fun w ->
        Domain.spawn (fun () -> worker_loop t ~home:(w + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let reraise_first (results : ('b, exn) result option array) =
  Array.iter
    (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
    results;
  Array.map
    (function
      | Some (Ok x) -> x
      | Some (Error _) | None ->
          failwith "Engine.Pool.map: task neither completed nor failed")
    results

let map t f xs =
  let n = Array.length xs in
  if t.stopping then invalid_arg "Engine.Pool.map: pool is shut down";
  if t.n_jobs = 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let exec i = results.(i) <- Some (try Ok (f xs.(i)) with e -> Error e) in
    let lanes = Stdlib.min t.n_jobs n in
    let lane_lo l = l * n / lanes in
    let b =
      {
        b_gen = t.gen + 1;
        size = n;
        lanes;
        cursors = Array.init lanes (fun l -> Atomic.make (lane_lo l));
        bounds = Array.init lanes (fun l -> lane_lo (l + 1));
        exec;
        completed = Atomic.make 0;
      }
    in
    Mutex.lock t.lock;
    t.gen <- b.b_gen;
    t.batch <- Some b;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* The caller is worker 0: it helps drain the batch, then sleeps
       until the stragglers' last fetch-and-add wakes it. *)
    run_batch t b ~home:0;
    Mutex.lock t.lock;
    while Atomic.get b.completed < n do
      Condition.wait t.idle t.lock
    done;
    t.batch <- None;
    Mutex.unlock t.lock;
    reraise_first results
  end

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

let tabulate t n f = map t f (Array.init n (fun i -> i))
