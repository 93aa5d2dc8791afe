(** A unidirectional link: serialisation at a fixed bit rate, a buffer
    ({!Qdisc}), a propagation delay, and an optional non-congestion
    {!Loss_model} applied as frames leave the transmitter.

    The link is work-conserving: a frame arriving at an idle transmitter
    starts serialising immediately; otherwise it is offered to the
    qdisc.  Propagation overlaps with the next transmission: the wire is
    an {!Engine.Sim.line}, so a frame launched at [t] arrives at
    [t + delay] in the same (time, seq) order a per-frame event would
    give, while the link keeps at most two events in the sim's wheel
    (the frame serialising, the wire's head) however many frames are in
    flight. *)

type stats = {
  mutable tx_frames : int;  (** frames fully serialised *)
  mutable tx_bytes : int;
  mutable lost_frames : int;  (** dropped by the loss model *)
  mutable delivered : int;  (** frames handed to the sink *)
}

type t

val create :
  sim:Engine.Sim.t ->
  rate_bps:float ->
  delay:float ->
  qdisc:Qdisc.t ->
  ?loss:Loss_model.t ->
  ?mangler:Mangler.t ->
  ?name:string ->
  unit ->
  t
(** [mangler], when given, is applied after propagation and before the
    sink: frames may be reordered, duplicated or corrupted there.
    Raises [Invalid_argument] naming the value unless [rate_bps > 0]
    and [delay >= 0] (so NaN is refused too). *)

val connect : t -> (Frame.t -> unit) -> unit
(** Set the receiver-side sink. Must be called before traffic flows. *)

val on_drop : t -> (Frame.t -> unit) -> unit
(** Observe every frame this link drops — by the loss model after
    serialisation, or by the qdisc refusing to enqueue.  Used by the
    invariant checker's packet-conservation accounting. *)

val send : t -> Frame.t -> unit
(** Offer a frame at the transmitter. *)

val sever : t -> unit
(** Sever the link ([`Cut]-mode handover): queued frames are dropped
    immediately, the frame still serialising when its serialisation
    ends, and every frame in propagation at its arrival time — all
    through the {!on_drop} hook with reason [D_cut], so conservation
    accounting stays exact.  Idempotent. *)

val restore : t -> unit
(** Undo {!sever}: subsequent traffic flows normally.  Frames dropped
    while severed stay dropped. *)

val stats : t -> stats
val qdisc : t -> Qdisc.t

val mangler : t -> Mangler.t option
(** The fault-injection stage installed at creation, if any — exposed so
    an observer (e.g. the fuzz harness's checker) can register its
    {!Mangler.on_duplicate}/{!Mangler.on_corrupt} hooks. *)

val name : t -> string
val rate_bps : t -> float
val delay : t -> float

val utilisation : t -> over:float -> float
(** Fraction of [over] seconds the link spent serialising, computed from
    bytes sent: [tx_bytes * 8 / (rate * over)]. *)
