(** Frozen record-based reference implementation of
    {!Loss_reconstructor}, kept as the differential-testing oracle for
    the flat float record of the live module.

    Sender-side loss-event reconstruction — the heart of QTP_light.

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

val on_covers :
  t ->
  covers:Scoreboard_lists.cover list ->
  rtt:float ->
  x_recv:float ->
  packet_size:int ->
  unit
(** Replay the numbers newly known received (ascending; merged
    cumulative + SACK coverage).  [x_recv] and [packet_size] are used to
    seed the synthetic first interval exactly as an RFC 3448 receiver
    would (§6.3.1). *)

(** {2 Streaming replay}

    The list-free twin of {!on_covers}, fed directly from
    {!Sack.Scoreboard.iter_feedback}: open a batch, push each cover in
    ascending sequence order, close the batch.  Closing performs the
    once-per-feedback trace accounting {!on_covers} does at its end;
    seeding (§6.3.1) still happens immediately at the first loss event,
    mid-batch, exactly as the list path did. *)

type batch

val begin_batch : t -> batch

val push_cover :
  t ->
  seq:Packet.Serial.t ->
  sent_at:float ->
  was_retx:bool ->
  rtt:float ->
  x_recv:float ->
  packet_size:int ->
  unit

val end_batch : t -> batch -> unit

val on_ce_marks :
  t ->
  new_marks:int ->
  rtt:float ->
  x_recv:float ->
  packet_size:int ->
  unit
(** Account ECN Congestion-Experienced signals echoed by the receiver
    (the cumulative counter increased by [new_marks] since the previous
    report).  Marks are attributed to the most recently replayed
    sequence position; like losses, marks within one RTT collapse into a
    single congestion event. *)

val on_handover :
  t ->
  policy:Tfrc.Handover.policy ->
  packet_size:int ->
  link:Tfrc.Handover.link_info ->
  unit
(** Apply the loss-history component of a handover policy to the
    reconstructed history — [`Keep] no-op, [`Reset] clear (§6.3.1
    seeding will run again on the new path's first loss event),
    [`Informed] re-seed to the interval matching
    {!Tfrc.Handover.informed_rate}. *)

val loss_event_rate : t -> float
val loss_events : t -> int
val history : t -> Tfrc.Loss_history.t
