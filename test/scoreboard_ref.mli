(** Frozen per-entry reference implementation of {!Scoreboard}, kept as the
    differential-testing oracle for the run-length rewrite.

    Sender-side SACK scoreboard.

    Tracks every transmitted-but-unacknowledged sequence number with its
    send time and retransmission count; digests SACK feedback into
    cumulative-ack advances, newly SACKed numbers, and loss inferences
    (a hole is deemed lost once [dupthresh] SACKed numbers lie above it
    — the SACK analogue of TCP's three duplicate ACKs — and a repair of
    such a hole once a number last sent more than [reo_wnd] after it
    has been acked or SACKed); and supports time-based expiry as a
    last-resort loss detector when SACK information stalls.  Each entry
    carries its own flags and every feedback re-walks the window. *)

type cover = {
  cov_seq : Packet.Serial.t;
  cov_sent_at : float;  (** first transmission time *)
  cov_was_retx : bool;  (** was ever retransmitted *)
}
(** A sequence number newly known to have reached the receiver. *)

type feedback_result = {
  newly_acked : cover list;  (** cumulative-ack advance, ascending seq *)
  newly_sacked : cover list;  (** new SACK coverage, ascending seq *)
  newly_lost : Packet.Serial.t list;  (** fresh loss inferences, ascending *)
  cum_advanced : bool;
}

type t

val create : ?dupthresh:int -> ?cost:Stats.Cost.t -> ?trace:Trace.Sink.t -> unit -> t
(** [trace] makes the scoreboard record retransmissions and loss
    inferences (dupthresh and timeout) into the flight recorder; the
    sink supplies the clock the scoreboard itself does not hold. *)

val on_send :
  t -> seq:Packet.Serial.t -> now:float -> size:int -> is_retx:bool -> unit
(** Record a (re)transmission.  New sequence numbers must be sent in
    order; retransmissions must reference a tracked number. *)

val next_seq : t -> Packet.Serial.t
(** The next fresh sequence number ([snd_nxt]). *)

val una : t -> Packet.Serial.t
(** Lowest unacknowledged sequence number ([snd_una]). *)

val on_feedback :
  t ->
  cum_ack:Packet.Serial.t ->
  blocks:Packet.Header.sack_block list ->
  reo_wnd:float ->
  feedback_result

val lost_pending : t -> Packet.Serial.t list
(** Numbers currently inferred lost and not yet retransmitted,
    ascending. *)

val mark_expired : t -> now:float -> timeout:float -> Packet.Serial.t list
(** Promote to lost every unacked, unsacked number whose last
    transmission is older than [timeout].  Returns the newly lost
    numbers (they also join {!lost_pending}). *)

val abandon_below : t -> Packet.Serial.t -> unit
(** Give up on everything below the given number (partial/no
    reliability): entries are dropped as if acknowledged, without
    counting as delivered. *)

val retx_count : t -> Packet.Serial.t -> int
(** Retransmissions so far of one number (0 if unknown). *)

val status :
  t -> Packet.Serial.t -> [ `Untracked | `In_flight | `Sacked | `Lost ]
(** Current knowledge about one sequence number.  [`Untracked] means
    never sent, already cumulatively acked, or abandoned. *)

val first_sent_at : t -> Packet.Serial.t -> float option
(** Time of the original transmission, while still tracked. *)

val outstanding : t -> int
(** Tracked, not-yet-covered sequence numbers. *)

val in_flight_bytes : t -> int

val stats_sent : t -> int
val stats_retx : t -> int
val stats_acked : t -> int
