(** Hierarchical timer wheel — {!Sim}'s default scheduler.

    Stores {!Event.t} records keyed by their [time], quantised to 1 µs
    ticks across nine levels of 32 slots (≈400 virtual days of horizon;
    later deadlines overflow into a respread bucket).  Insert and cancel
    are O(1) amortized; finding the next event costs O(1) amortized via
    per-level occupancy bitmaps plus an O(log k) ready heap over the k
    events of the current tick.

    Events pop in exactly the (time, seq) order of the reference
    {!Heap}-based scheduler; the two are differentially tested.  Unlike
    the heap, cancellation removes the event immediately (swap-remove in
    its bucket), so the wheel only ever holds live events. *)

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

val min : t -> Event.t option
(** Peek the next event without firing it.  May advance the internal
    cursor (cascading far slots down), which is unobservable. *)

val pop_min : t -> Event.t option
(** Remove and return the next event in (time, seq) order. *)

val census : t -> int * int * int * int
(** White-box accounting snapshot for tests:
    [(bucket_events, live_ready_events, size, cursor)].  The invariant
    [bucket_events + live_ready_events = size] must hold after every
    operation. *)
