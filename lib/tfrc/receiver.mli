(** The standard (RFC 3448) TFRC receiver.

    This is the *heavy* receiver the paper wants to relieve mobile
    devices of: it owns the {!Loss_history}, measures the receive rate,
    and reports [(x_recv, p, timestamp echo)] once per RTT — sooner when
    a new loss event appears.

    The receiver is transport-agnostic: it consumes data headers and
    produces {!Packet.Header.feedback} records through a callback. *)

type t

val create :
  sim:Engine.Sim.t ->
  ?cost:Stats.Cost.t ->
  ?trace:Trace.Sink.t ->
  send_feedback:(Packet.Header.feedback -> unit) ->
  unit ->
  t
(** [trace] makes the receiver record each loss event it opens and each
    feedback report it emits. *)

val on_data : t -> ce:bool -> Packet.Header.data -> size:int -> unit
(** Process one arriving data segment of [size] on-wire bytes.  [ce]
    signals an ECN Congestion-Experienced mark on the packet: it is
    accounted as a congestion event (RFC 3168) though nothing was
    lost. *)

val on_handover : t -> policy:Handover.policy -> link:Handover.link_info -> unit
(** Apply the loss-history component of a handover policy (the standard
    plane keeps the history receiver-side): [`Keep] does nothing,
    [`Reset] clears it, [`Informed] re-seeds it to the interval that
    matches {!Handover.informed_rate} on the new link.  Also adopts the
    declared RTT for loss-event grouping until the sender's estimate
    arrives in-band. *)

val x_recv : t -> float
(** Receive rate (bytes/s) over the last feedback interval. *)

val loss_event_rate : t -> float

val loss_events : t -> int

val packets_received : t -> int

val feedbacks_sent : t -> int
