(** Discrete-event simulation core.

    A simulation owns a virtual clock and an event queue.  Events are
    thunks scheduled at absolute or relative virtual times; ties are
    broken by insertion order so runs are fully deterministic.  Time is
    in seconds (float).

    The queue is a hierarchical timer wheel ({!Wheel}: O(1) amortized
    insert and cancel).  The tests replay recorded operation streams
    ({!set_tracer}) through it and through a reference binary heap,
    which must pop the same events in the same (time, insertion)
    order. *)

type t

type handle
(** Cancellation token for a scheduled event. *)

val create : ?seed:int -> unit -> t
(** Fresh simulation at time 0.  [seed] (default 42) seeds the root RNG
    from which components should [split] their own streams. *)

val now : t -> float
(** Current virtual time. *)

val rng : t -> Rng.t
(** The root random stream of this simulation. *)

val split_rng : t -> Rng.t
(** Convenience for [Rng.split (rng t)]. *)

val schedule_at : t -> float -> (unit -> unit) -> handle
(** [schedule_at t time f] runs [f] at virtual [time].  Scheduling in the
    past, or at NaN, raises [Invalid_argument]. *)

val schedule_after : t -> float -> (unit -> unit) -> handle
(** [schedule_after t delay f] = [schedule_at t (now t +. delay) f]. *)

val post_at : t -> float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_at}: no cancellation handle is built, so
    hot paths that never cancel (link transmission, propagation) avoid
    the per-event handle allocation. *)

val post_after : t -> float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_after}. *)

val schedule_after_ev : t -> float -> (unit -> unit) -> Event.t
(** Handle-free {!schedule_after} for owners that keep the event record
    itself (timers, send ticks): returns the scheduled event, whose
    [gen] must be captured immediately for a later {!cancel_ev}.  Saves
    the per-arming handle allocation on hot re-arm paths. *)

val cancel_ev : t -> Event.t -> gen:int -> unit
(** Cancel an event obtained from {!schedule_after_ev}.  [gen] is the
    event's generation at scheduling time; a stale pair (the event has
    already fired and been recycled) is a no-op, exactly like a stale
    {!handle}. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; cancelling a fired or cancelled event is a
    no-op.  A cancelled event never runs and never advances the
    clock. *)

val executed : t -> int
(** Events run so far — the denominator for events/sec throughput
    accounting.  Cancelled events do not count. *)

val run : ?until:float -> t -> unit
(** Drain the event queue in time order.  With [until], stops once the
    next live event is strictly later than [until] and advances the
    clock to [until].  Without it, runs until the queue empties.  On
    the wheel, each event is peeked and taken once ({!Wheel.peek},
    {!Wheel.take}) and firing it allocates nothing in the engine. *)

val step : t -> bool
(** Execute the single next live event. [false] if none remain. *)

type trace_op =
  | T_schedule of float  (** an event was enqueued for this time *)
  | T_cancel of int  (** the event with this sequence number was cancelled *)
  | T_pop  (** the next live event fired *)

val set_tracer : t -> (trace_op -> unit) option -> unit
(** Observe the raw scheduler operation stream.  Sequence numbers are
    assigned in schedule order from 0, so a tracer installed before the
    first schedule sees a self-contained stream.  The benchmark
    (perfbench) records a run's stream once, then replays it through a
    bare {!Wheel} to price the scheduler apart from the protocol work;
    the tests replay streams through the wheel and a reference heap.
    [None] (the default) disables tracing; the hook costs one branch
    per operation when unset. *)
