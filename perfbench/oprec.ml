(* The engine's scheduler operation stream ({!Engine.Sim.set_tracer}),
   recorded into flat arrays and replayed through a bare
   {!Engine.Wheel} to price the scheduler apart from the protocol work
   its events run.

   Every operation is counted; only the first [cap] are kept, so memory
   stays bounded on long runs.  A prefix of the stream is itself a
   consistent stream (cancels and pops only touch events scheduled
   earlier), so the replay's ns/op applies to the whole count.  Event
   sequence numbers are assigned in schedule order from 0, so the
   tracer must be installed before the first event is scheduled. *)

(* [ops.(i)] codes: a cancel stores the cancelled event's sequence
   number (>= 0); a schedule stores [op_schedule] and appends its due
   time to [times]. *)
let op_pop = -1

let op_schedule = -2

type t = {
  cap : int;
  mutable ops : int array;
  mutable times : float array;
  mutable n_ops : int;
  mutable n_times : int;
  mutable prefix_pops : int;
  mutable schedules : int;
  mutable cancels : int;
  mutable pops : int;
}

let create ?(cap = 2_000_000) () =
  {
    cap;
    ops = Array.make 4096 0;
    times = Array.create_float 4096;
    n_ops = 0;
    n_times = 0;
    prefix_pops = 0;
    schedules = 0;
    cancels = 0;
    pops = 0;
  }

let push_op t v =
  if t.n_ops = Array.length t.ops then begin
    let grown = Array.make (2 * t.n_ops) 0 in
    Array.blit t.ops 0 grown 0 t.n_ops;
    t.ops <- grown
  end;
  t.ops.(t.n_ops) <- v;
  t.n_ops <- t.n_ops + 1

let push_time t x =
  if t.n_times = Array.length t.times then begin
    let grown = Array.create_float (2 * t.n_times) in
    Array.blit t.times 0 grown 0 t.n_times;
    t.times <- grown
  end;
  t.times.(t.n_times) <- x;
  t.n_times <- t.n_times + 1

let record t op =
  let keep = t.n_ops < t.cap in
  match op with
  | Engine.Sim.T_schedule time ->
      t.schedules <- t.schedules + 1;
      if keep then begin
        push_op t op_schedule;
        push_time t time
      end
  | Engine.Sim.T_cancel seq ->
      t.cancels <- t.cancels + 1;
      if keep then push_op t seq
  | Engine.Sim.T_pop ->
      t.pops <- t.pops + 1;
      if keep then begin
        push_op t op_pop;
        t.prefix_pops <- t.prefix_pops + 1
      end

let ops t = t.schedules + t.cancels + t.pops

let recorded t = t.n_ops

(* Replay the recorded prefix the way {!Engine.Sim} drives the wheel:
   fired and eagerly-removed records are recycled through a free
   stack.  Returns the live pops (checked against the recording) and
   the replay's wall time in ns. *)
let replay t =
  let w = Engine.Wheel.create () in
  let slots = Stdlib.max 1 t.n_times in
  let by_seq = Array.make slots (Engine.Event.make_dummy ()) in
  let free = Array.make slots by_seq.(0) in
  let n_free = ref 0 in
  let release ev =
    free.(!n_free) <- ev;
    incr n_free
  in
  let next_seq = ref 0 in
  let pops = ref 0 in
  let started = Span.now () in
  for i = 0 to t.n_ops - 1 do
    let op = t.ops.(i) in
    if op = op_schedule then begin
      let ev =
        if !n_free > 0 then begin
          decr n_free;
          free.(!n_free)
        end
        else Engine.Event.make_dummy ()
      in
      let seq = !next_seq in
      ev.Engine.Event.time <- t.times.(seq);
      ev.Engine.Event.seq <- seq;
      ev.Engine.Event.live <- true;
      by_seq.(seq) <- ev;
      next_seq := seq + 1;
      Engine.Wheel.add w ev
    end
    else if op = op_pop then begin
      match Engine.Wheel.pop_min w with
      | Some ev ->
          incr pops;
          release ev
      | None -> failwith "Oprec.replay: wheel underflow"
    end
    else begin
      let ev = by_seq.(op) in
      if not ev.Engine.Event.live || ev.Engine.Event.seq <> op then
        failwith "Oprec.replay: cancel of an event that is not pending";
      ev.Engine.Event.live <- false;
      if Engine.Wheel.remove w ev then release ev
    end
  done;
  (!pops, Span.now () - started)
