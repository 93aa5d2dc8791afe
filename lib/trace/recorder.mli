(** The flight recorder: one bounded {!Ring} per connection (flow id),
    fed through an ambient global registry.

    The registry follows the repo's one-simulation-at-a-time idiom
    (mirroring [Qtp.Inspect] and the experiment harness's checked
    mode): a harness runs the simulation inside {!with_recorder};
    instrumented modules ask {!on} — one mutable-load branch when
    tracing is off — before building an event, then hand it to
    {!emit}.  Every event, whatever its shape, takes the one path
    {!emit} → {!record} → {!Ring.push}.
    Recording is deterministic: events land in the emitting flow's ring
    in emission order, and rings never contain wall-clock or
    process-global state.

    Internally events are journaled through one shared flow-tagged
    ring (a single sequential write stream, cache-friendly where many
    interleaved per-flow rings are not); {!ring} materialises a flow's
    bounded ring from the journal on demand. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is each flow's ring size (default 16384). *)

val on : unit -> bool
(** Cheap guard: is a recorder installed?  Call before allocating an
    event on a hot path. *)

val emit : flow:int -> at:float -> Event.t -> unit
(** Record into the ambient recorder; no-op when none is installed. *)

val record : t -> flow:int -> at:float -> Event.t -> unit
(** Record into a specific recorder (bypassing the registry).  Raises
    [Invalid_argument] when [flow] is outside [\[0, 2^20)], leaving the
    recorder unchanged. *)

val with_recorder : (unit -> 'a) -> 'a * t
(** [with_recorder f] installs a fresh recorder, runs [f], clears the
    registry (also on exception) and returns [f]'s result with the
    recorder. *)

val flows : t -> int list
(** Flow ids with at least one event, ascending. *)

val ring : t -> flow:int -> Ring.t option
(** Materialise [flow]'s bounded ring (capped at the recorder's
    per-flow capacity) by replaying the journal — an O(events) walk,
    intended for export time, not hot paths.  [None] if the flow never
    recorded an event. *)

val events : t -> int
(** Total events recorded (evicted entries included). *)
