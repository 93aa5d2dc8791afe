(** Hierarchical timer wheel — {!Sim}'s event queue.

    Stores {!Event.t} records keyed by their [time], quantised to 1 µs
    ticks across nine levels of 32 slots (≈400 virtual days of horizon;
    later deadlines overflow into a respread bucket, and those past 2^61
    ticks, [infinity] included, share that one tick).  Insert and
    cancel are O(1) amortized; finding the next event costs O(1)
    amortized via per-level occupancy bitmaps plus an O(log k) ready
    heap over the k events of the current tick.  The ready heap is the
    wheel's own flat array of events compared inline by (time, seq),
    and {!peek} and {!take} allocate nothing: {!Sim} fires each event
    with one of each.

    Events pop in exactly (time, seq) order, [seq] breaking ties of
    [Float.compare] on times: the tests replay recorded operation
    streams through the wheel and a reference binary heap and compare
    every pop.  Cancellation removes
    the event immediately (swap-remove in its bucket), except for one
    already staged in the ready heap, which stays there dead until it
    surfaces. *)

type t

val create : unit -> t

val add : t -> Event.t -> unit
(** File an event by its [time].  The wheel takes ownership of the
    record's [tick]/[where]/[pos] scratch fields. *)

val remove : t -> Event.t -> bool
(** Detach a cancelled event.  [true] means the record was unlinked and
    may be recycled at once; [false] means it is staged in the ready
    heap (or already gone) and will be discarded when it surfaces.  The
    caller must have cleared [live] first. *)

val length : t -> int
(** Number of live (uncancelled, unfired) events. *)

val peek : t -> Event.t
(** The next live event in (time, seq) order, left in place; when the
    wheel is empty, a sentinel record whose [live] is [false].  May
    advance the internal cursor (cascading far slots down), which is
    unobservable. *)

val take : t -> Event.t -> unit
(** Remove the event the last {!peek} returned.  Raises
    [Invalid_argument] if it is not that live event. *)

val pop_min : t -> Event.t option
(** {!peek} then {!take}: remove and return the next event in (time,
    seq) order. *)

val census : t -> int * int * int * int
(** White-box accounting snapshot for tests:
    [(bucket_events, live_ready_events, size, cursor)].  The invariant
    [bucket_events + live_ready_events = size] must hold after every
    operation. *)
