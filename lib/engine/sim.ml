type handle = { ev : Event.t; h_gen : int }

(* Fired and cancelled event records are recycled through a bounded
   free-list so steady-state scheduling allocates only the caller's
   closure and the 2-word handle.  [gen] is bumped on release; a stale
   handle (cancel after fire) fails its generation check and is a
   no-op, exactly as the contract demands. *)
let pool_max = 65536

type trace_op = T_schedule of float | T_cancel of int | T_pop

type t = {
  mutable clock : float;
  mutable next_seq : int;
  wheel : Wheel.t;
  root_rng : Rng.t;
  mutable pool : Event.t array;
  mutable pool_n : int;
  mutable executed : int;
  mutable tracer : (trace_op -> unit) option;
}

let create ?(seed = 42) () =
  {
    clock = 0.0;
    next_seq = 0;
    wheel = Wheel.create ();
    root_rng = Rng.create ~seed;
    pool = [||];
    pool_n = 0;
    executed = 0;
    tracer = None;
  }

let now t = t.clock

let rng t = t.root_rng

let split_rng t = Rng.split t.root_rng

let executed t = t.executed

let set_tracer t f = t.tracer <- f

let alloc t time run =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.pool_n > 0 then begin
    let n = t.pool_n - 1 in
    t.pool_n <- n;
    let ev = t.pool.(n) in
    ev.Event.time <- time;
    ev.Event.seq <- seq;
    ev.Event.run <- run;
    ev.Event.live <- true;
    ev
  end
  else
    {
      Event.time;
      seq;
      run;
      live = true;
      gen = 0;
      tick = 0;
      where = Event.in_none;
      pos = 0;
    }

let release t (ev : Event.t) =
  ev.Event.gen <- ev.Event.gen + 1;
  ev.Event.run <- Event.noop;
  ev.Event.live <- false;
  if t.pool_n < Array.length t.pool then begin
    t.pool.(t.pool_n) <- ev;
    t.pool_n <- t.pool_n + 1
  end
  else if Array.length t.pool < pool_max then begin
    let cap = Stdlib.max 64 (2 * Array.length t.pool) in
    let pool = Array.make cap ev in
    Array.blit t.pool 0 pool 0 t.pool_n;
    t.pool <- pool;
    t.pool_n <- t.pool_n + 1
  end
(* else: pool full, let the GC have it *)

(* [not (time >= clock)] also refuses NaN, which compares false both
   ways and would otherwise slip past the check. *)
let enqueue t time run =
  if not (time >= t.clock) then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: time %g is before now %g" time t.clock);
  let ev = alloc t time run in
  (match t.tracer with Some f -> f (T_schedule time) | None -> ());
  Wheel.add t.wheel ev;
  ev

let schedule_at t time run =
  let ev = enqueue t time run in
  { ev; h_gen = ev.Event.gen }

let schedule_after t delay run =
  if delay < 0.0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule_at t (t.clock +. delay) run

(* Handle-free scheduling for owners that hold the event directly (the
   timer, the TFRC send tick): no 2-word handle per arming.  Callers
   must capture [ev.gen] at scheduling time and cancel via
   {!cancel_ev}. *)
let schedule_after_ev t delay run =
  if delay < 0.0 then invalid_arg "Sim.schedule_after: negative delay";
  enqueue t (t.clock +. delay) run

let post_at t time run = ignore (enqueue t time run : Event.t)

let post_after t delay run =
  if delay < 0.0 then invalid_arg "Sim.post_after: negative delay";
  post_at t (t.clock +. delay) run

(* A cancelled event never runs and never advances the clock.  One
   still staged in the wheel's ready heap stays there, dead, until it
   surfaces; the wheel drops it then. *)
let cancel_ev t ev ~gen =
  if ev.Event.gen = gen && ev.Event.live then begin
    ev.Event.live <- false;
    (match t.tracer with Some f -> f (T_cancel ev.Event.seq) | None -> ());
    if Wheel.remove t.wheel ev then release t ev
  end

let cancel t { ev; h_gen } = cancel_ev t ev ~gen:h_gen

(* Run [ev], just returned live by {!Wheel.peek}: take it from the
   wheel, advance the clock and recycle the record before its thunk
   runs.  This and the peek allocate nothing. *)
let[@vtp.hot] fire t (ev : Event.t) =
  Wheel.take t.wheel ev;
  t.clock <- ev.Event.time;
  t.executed <- t.executed + 1;
  (match t.tracer with Some f -> f T_pop | None -> ());
  let run = ev.Event.run in
  release t ev;
  run ()

let[@vtp.hot] step t =
  let ev = Wheel.peek t.wheel in
  ev.Event.live
  && begin
       fire t ev;
       true
     end

let[@vtp.hot] rec run_until t horizon =
  let ev = Wheel.peek t.wheel in
  if ev.Event.live && ev.Event.time <= horizon then begin
    fire t ev;
    run_until t horizon
  end
  else t.clock <- Stdlib.max t.clock horizon

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon -> run_until t horizon
