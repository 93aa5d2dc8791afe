(** Sender-side loss-event reconstruction — the heart of QTP_light.

    The receiver only reports *which* sequence numbers arrived (SACK);
    this module replays those reports as a virtual arrival stream into
    the very same {!Tfrc.Loss_history} machinery a standard receiver
    runs, yielding the loss event rate [p] on the sender side.

    Virtual arrival times: a number first covered by feedback at time
    [now], originally sent at [sent_at], is replayed with arrival time
    [sent_at +. rtt] — the moment it would have reached the receiver
    plus the feedback path, preserving the relative spacing that drives
    RTT-based loss-event grouping.

    Because the sender computes [p] itself, a selfish receiver cannot
    deflate it (Georg & Gorinsky's attack), and the receiver no longer
    pays for the history — the paper's two QTP_light claims. *)

type t

val create : ?cost:Stats.Cost.t -> ?trace:Trace.Sink.t -> unit -> t
(** [trace] records a sender-side loss event whenever a replay batch
    opens one. *)

(** {2 Replay}

    Fed directly from {!Sack.Scoreboard.iter_feedback}: open a batch,
    push each number newly known received (merged cumulative + SACK
    coverage) in ascending sequence order, close the batch.  Closing
    traces a sender-side loss event if the batch opened one.  [x_recv]
    and the segment size {!Vtp_wire.packet_size} seed the synthetic
    first interval exactly as an RFC 3448 receiver would (§6.3.1), at
    the first loss event, mid-batch. *)

type batch

val begin_batch : t -> batch

val push_cover :
  t ->
  seq:Packet.Serial.t ->
  sent_at:float ->
  was_retx:bool ->
  rtt:float ->
  x_recv:float ->
  unit

val end_batch : t -> batch -> unit

val on_ce_marks :
  t ->
  new_marks:int ->
  rtt:float ->
  x_recv:float ->
  unit
(** Account ECN Congestion-Experienced signals echoed by the receiver
    (the cumulative counter increased by [new_marks] since the previous
    report).  Marks are attributed to the most recently replayed
    sequence position; like losses, marks within one RTT collapse into a
    single congestion event. *)

val on_handover :
  t -> policy:Tfrc.Handover.policy -> link:Tfrc.Handover.link_info -> unit
(** Apply the loss-history component of a handover policy to the
    reconstructed history — [`Keep] no-op, [`Reset] clear (§6.3.1
    seeding will run again on the new path's first loss event),
    [`Informed] re-seed to the interval matching
    {!Tfrc.Handover.informed_rate}. *)

val loss_event_rate : t -> float
val loss_events : t -> int
val history : t -> Tfrc.Loss_history.t
