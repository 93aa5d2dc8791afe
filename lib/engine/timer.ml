(* Restartable one-shot timer over [Sim] scheduling.

   Arming is allocation-free in steady state: the expiry thunk is built
   once at [create], and the pending event is referenced directly
   (event + generation) rather than through an option-wrapped handle,
   so protocol state machines that re-arm on every feedback or RTT do
   not churn the minor heap. *)

type t = {
  sim : Sim.t;
  mutable fire : unit -> unit;  (* built once in [create] *)
  mutable ev : Event.t;  (* pending event; meaningful only when armed *)
  mutable gen : int;  (* generation of [ev] when it was scheduled *)
  mutable armed : bool;
}

let create sim ~on_expire =
  let t =
    {
      sim;
      fire = Event.noop;
      ev = Event.make_dummy ();
      gen = 0;
      armed = false;
    }
  in
  t.fire <-
    (fun () ->
      t.armed <- false;
      on_expire ());
  t

let stop t =
  if t.armed then begin
    t.armed <- false;
    Sim.cancel_ev t.sim t.ev ~gen:t.gen
  end

let[@vtp.hot] start t ~after =
  stop t;
  let ev = Sim.schedule_after_ev t.sim after t.fire in
  t.ev <- ev;
  t.gen <- ev.Event.gen;
  t.armed <- true

let is_armed t = t.armed

let deadline t = if t.armed then t.ev.Event.time else infinity
