(** Discrete-event simulation core.

    A simulation owns a virtual clock and an event queue.  Events are
    thunks scheduled at absolute or relative virtual times; ties are
    broken by insertion order so runs are fully deterministic.  Time is
    in seconds (float).

    The queue is a hierarchical timer wheel ({!Wheel}: O(1) amortized
    insert and cancel).  The tests replay recorded operation streams
    ({!set_tracer}) through it and through a reference binary heap,
    which must pop the same events in the same (time, insertion)
    order.  A delay {!line} keeps constant-delay FIFO traffic (a link's
    frames in propagation) out of the wheel but for its head, with no
    change to that order. *)

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
    hot paths that never cancel (link serialisation, source ticks)
    avoid the per-event handle allocation. *)

val post_after : t -> float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_after}. *)

type 'a line
(** A FIFO delay line: each item sent is delivered a fixed delay after
    its send, in send order — a link's propagation stage. *)

val line : t -> delay:float -> dummy:'a -> ('a -> unit) -> 'a line
(** [line t ~delay ~dummy deliver] is an empty line whose items reach
    [deliver] [delay] seconds after they are sent.  [dummy] fills the
    slots no item holds; it is never delivered.  Raises
    [Invalid_argument] unless [delay >= 0] (so NaN is refused). *)

val send : 'a line -> 'a -> unit
(** [send l x] is [post_after t delay (fun () -> deliver x)] in every
    way the simulation can observe: the item takes its sequence number
    now, the tracer sees [T_schedule] now, and it fires in the same
    (time, seq) order among all events, ties included.  Only the
    line's head is filed in the wheel: firing it files the next item
    under the seq that item took at its send, then delivers.  So a
    line holds one wheel entry however many items it carries, and
    neither it nor the item is boxed, closed over or tupled: what an
    item costs is the boxed due time of the head's record (2 words),
    as a [post_after] does.  The buffer is allocated at the first send
    and doubles when full; a delivered item's slot is cleared. *)

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
    clock to [until]; a NaN [until] raises [Invalid_argument].  Without
    it, runs until the queue empties.  On the wheel, each event is
    peeked and taken once ({!Wheel.peek}, {!Wheel.take}) and firing it
    allocates nothing in the engine. *)

val step : t -> bool
(** Execute the single next live event. [false] if none remain. *)

type trace_op =
  | T_schedule of float  (** an event was enqueued for this time *)
  | T_cancel of int  (** the event with this sequence number was cancelled *)
  | T_pop  (** the next live event fired *)

val set_tracer : t -> (trace_op -> unit) option -> unit
(** Observe the raw scheduler operation stream.  Sequence numbers are
    assigned in schedule order from 0, so a tracer installed before the
    first schedule sees a self-contained stream.  An item sent on a
    {!line} is one [T_schedule] at its send and one [T_pop] at its
    delivery, as a {!post_after} would be; filing the line's next head
    is no op.  The benchmark (perfbench) records a run's stream once,
    then replays it through a bare {!Wheel} to price the scheduler
    apart from the protocol work, so the replay files every line item
    the simulation keeps out of its wheel; the tests replay streams
    through the wheel and a reference heap.
    [None] (the default) disables tracing; the hook costs one branch
    per operation when unset. *)
