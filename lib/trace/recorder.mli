(** The flight recorder: one bounded {!Ring} per connection (flow id),
    fed through an ambient global registry.

    The registry follows the repo's one-simulation-at-a-time idiom
    (mirroring [Qtp.Inspect] and the experiment harness's checked
    mode): a harness {!install}s a recorder around a run and {!clear}s
    it after; instrumented modules ask {!on} — one mutable-load branch
    when tracing is off — before building an event, then hand it to
    {!emit}.  Recording is deterministic: events land in the emitting
    flow's ring in emission order, and rings never contain wall-clock
    or process-global state.

    Internally events are journaled through one shared flow-tagged
    ring (a single sequential write stream, cache-friendly where many
    interleaved per-flow rings are not); {!ring} materialises a flow's
    bounded ring from the journal on demand. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is each flow's ring size (default 16384). *)

val install : t -> unit
(** Make [t] the ambient recorder.  Replaces any previous one. *)

val clear : unit -> unit
(** Remove the ambient recorder (tracing off). *)

val installed : unit -> t option

val on : unit -> bool
(** Cheap guard: is a recorder installed?  Call before allocating an
    event on a hot path. *)

val emit : flow:int -> at:float -> Event.t -> unit
(** Record into the ambient recorder; no-op when none is installed. *)

val record : t -> flow:int -> at:float -> Event.t -> unit
(** Record into a specific recorder (bypassing the registry). *)

val record_seg_send :
  t -> flow:int -> at:float -> seq:Packet.Serial.t -> size:int ->
  retx:bool -> unit

val record_seg_recv :
  t -> flow:int -> at:float -> seq:Packet.Serial.t -> size:int ->
  ce:bool -> retx:bool -> unit

val record_sack_sent :
  t -> flow:int -> at:float -> cum_ack:Packet.Serial.t -> blocks:int ->
  x_recv:float -> unit

val record_sack_rcvd :
  t -> flow:int -> at:float -> cum_ack:Packet.Serial.t -> blocks:int ->
  acked:int -> sacked:int -> lost:int -> unit

val record_tcp_send :
  t -> flow:int -> at:float -> seq:Packet.Serial.t -> retx:bool -> unit

val record_tcp_ack :
  t -> flow:int -> at:float -> cum_ack:Packet.Serial.t -> cwnd:float ->
  ssthresh:float -> unit
(** Zero-allocation fast paths for the hot event shapes — no [Event.t]
    is built; the recorded bytes are identical to {!record} of the
    corresponding constructor. *)

val with_recorder : ?capacity:int -> (unit -> 'a) -> 'a * t
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
