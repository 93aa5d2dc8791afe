(** A VTP connection: the composition of a congestion-control plane, a
    reliability plane and a feedback plane over a simulated path.

    This module is the paper's "versatile transport protocol": both
    endpoints are built here from an agreed {!Capabilities.agreed}
    configuration — either fixed by the caller or negotiated in-band
    through a SYN / SYN-ACK / ACK handshake carrying encoded offers.

    Composition map:

    - congestion control: {!Tfrc.Sender} (gTFRC when [target_bps > 0]);
    - feedback plane [Standard]: an RFC 3448 {!Tfrc.Receiver} computes
      [p] remotely; when reliability is on, per-packet SACK reports run
      alongside as the repair ack-clock;
    - feedback plane [Light]: the receiver runs only a
      {!Sack.Rcv_tracker} and reports once per RTT, at once on a new
      hole, the first packet or a CE mark; the sender reconstructs
      loss events with {!Loss_reconstructor} (QTP_light);
    - receive window: one {!Sack.Rcv_tracker} on every plane holds the
      received numbers and delivers them in order; it renders SACK
      reports only where the plane sends them;
    - reliability: {!Sack.Scoreboard} + {!Sack.Reliability} decide
      retransmissions; abandoned holes propagate to the receiver through
      the data-header forward point. *)

type config = {
  agreed : Capabilities.agreed;
  initial_rtt : float;
  max_rate_bps : float option;
  sack_blocks : int;  (** SACK blocks carried per report (default 4) *)
  oscillation_damping : bool;  (** RFC 3448 §4.5 (default off) *)
  handover : Tfrc.Handover.policy;
      (** rate-policy applied on {!notify_migration} (default [`Keep]) *)
}

val config : ?initial_rtt:float -> ?max_rate_bps:float -> ?sack_blocks:int ->
  ?oscillation_damping:bool -> ?handover:Tfrc.Handover.policy ->
  Capabilities.agreed -> config
(** Every data segment is {!Vtp_wire.packet_size} B on the wire. *)

type state =
  | Negotiating
  | Established of Capabilities.agreed
  | Closing
      (** {!close} was called: no new data; retransmissions continue
          until the reliability plane drains, then CLOSE / CLOSE-ACK *)
  | Closed
  | Failed of string

type t

val create :
  sim:Engine.Sim.t ->
  endpoint:Netsim.Topology.endpoint ->
  ?cost_sender:Stats.Cost.t ->
  ?cost_receiver:Stats.Cost.t ->
  ?source:Source.t ->
  ?start_at:float ->
  config ->
  t
(** Build both endpoints with a fixed configuration and start the
    sender at [start_at] (default 0).  [source] defaults to greedy. *)

val create_negotiated :
  sim:Engine.Sim.t ->
  endpoint:Netsim.Topology.endpoint ->
  ?cost_sender:Stats.Cost.t ->
  ?cost_receiver:Stats.Cost.t ->
  ?source:Source.t ->
  ?start_at:float ->
  ?initial_rtt:float ->
  ?handover:Tfrc.Handover.policy ->
  initiator:Capabilities.offer ->
  responder:Capabilities.offer ->
  unit ->
  t
(** Run the in-band handshake; data flows only if negotiation succeeds
    (check {!state} after the simulation ran past the handshake). *)

val state : t -> state

val set_on_deliver : t -> (seq:Packet.Serial.t -> unit) -> unit
(** Install a per-segment in-order delivery tap on the receiving side:
    called for every segment the receive window hands to the
    application, in sequence order, exactly once per sequence number.
    Every data segment carries the same payload, {!Vtp_wire.payload}.
    The trunk layer's demultiplex point.  Taps accumulate: a later call
    runs its tap after the ones already installed and never replaces
    them. *)

val notify_migration : t -> link:Tfrc.Handover.link_info -> unit
(** Tell the connection its path just migrated to a link with the given
    declared parameters.  The configured {!Tfrc.Handover.policy} is
    applied to the sender's rate/RTT state and to whichever loss
    history the plane owns — the light plane's sender-side
    reconstruction or the standard plane's receiver history.  Typically
    registered via {!Netsim.Topology.on_migrate}. *)

val close : t -> unit
(** Graceful teardown: stop accepting application data, finish pending
    retransmissions, then exchange CLOSE / CLOSE-ACK (with retries; the
    sender eventually closes unilaterally if the peer vanished).
    Idempotent. *)

(** {2 Observation}

    A connection records protocol state and counters and holds no
    per-packet log.  Per-packet measurement and any misbehaviour belong
    to the harness, at the endpoint: wrap the
    {!Netsim.Topology.endpoint} before {!create} — its [on_receiver_rx]
    sees every arrival, its [to_receiver] every first send, its
    [to_sender] every report — and pair it with {!set_on_deliver} for
    in-order delivery.  [Experiments.Common]'s endpoint probes (arrival
    log, delivery delays, a selfish receiver) and its goodput tap are
    built this way. *)

val goodput : t -> Stats.Series.t
(** The payload bytes delivered in order so far ({!delivered} times
    {!Vtp_wire.payload}), as a fresh one-sample series stamped at the
    current simulated time.  It exists for the benchmark, which reads
    only its total; goodput over a window comes from a
    {!set_on_deliver} tap. *)

val current_rate_bps : t -> float

val sender_loss_estimate : t -> float
(** The loss event rate steering the sender: receiver-reported on the
    standard plane, reconstructed on the light plane. *)

val receiver_loss_estimate : t -> float option
(** The RFC 3448 receiver's own estimate (standard plane only). *)

val data_sent : t -> int
val retransmissions : t -> int

val expiry_losses : t -> int
(** Segments the sender's expiry timer (the 4×RTT last resort) inferred
    lost; 0 without a SACK plane. *)

val duplicates_received : t -> int
(** Data segments whose number the receive window already held, or had
    passed at a forward point, when they arrived.  Counted on every
    plane; without a SACK plane nothing is retransmitted, so only the
    network's duplicates and late reordered segments count. *)

val abandoned : t -> int
val delivered : t -> int
val skipped : t -> int
val feedback_packets : t -> int
val feedback_bytes : t -> int
val handshake_packets : t -> int
