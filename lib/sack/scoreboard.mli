(** Sender-side SACK scoreboard.

    Tracks every transmitted-but-unacknowledged sequence number with its
    send time and retransmission count; digests SACK feedback into
    cumulative-ack advances, newly SACKed numbers, and loss inferences;
    and supports time-based expiry as a last-resort loss detector when
    SACK information stalls.

    Two rules infer loss from feedback.  A hole is deemed lost once
    3 SACKed numbers (the dupthresh) lie above it — the SACK analogue
    of TCP's three duplicate ACKs.  A repair of such a hole is in flight
    again, and is deemed lost again only by send order (RFC 8985 RACK):
    once a number whose last transmission went out more than [reo_wnd]
    after the repair's has been cumulatively acked or SACKed.  So each
    repair is sent once per loss, not once per report. *)

type t

val create :
  ?capacity:int ->
  ?cost:Stats.Cost.t ->
  ?trace:Trace.Sink.t ->
  unit ->
  t
(** [trace] makes the scoreboard record retransmissions and loss
    inferences (dupthresh and timeout) into the flight recorder; the
    sink supplies the clock the scoreboard itself does not hold.
    [capacity] pre-sizes the per-packet ring (rounded up to a power of
    two, default and floor 16); the ring doubles on demand either way,
    so this is purely a steady-state hint for large-BDP windows. *)

val on_send :
  t -> seq:Packet.Serial.t -> now:float -> size:int -> is_retx:bool -> unit
(** Record a (re)transmission.  New sequence numbers must be sent in
    order; retransmissions must reference a tracked number. *)

val next_seq : t -> Packet.Serial.t
(** The next fresh sequence number ([snd_nxt]). *)

val una : t -> Packet.Serial.t
(** Lowest unacknowledged sequence number ([snd_una]). *)

val pos : t -> Packet.Serial.t -> int
(** Absolute position of a number in this scoreboard's numbering.
    Positions are monotone and never wrap, even though serials do: a
    number below {!una} maps below [pos t (una t)], for the life of the
    scoreboard, so a position set trimmed at that point never holds a
    stale entry that could alias a live number after the 32-bit wrap. *)

type feedback_summary = {
  fb_acked : int;
  fb_sacked : int;
  fb_lost : int;
}
(** Counts of what one feedback digest uncovered — everything the hot
    path needs that is not already streamed through the callbacks. *)

val iter_feedback :
  t ->
  cum_ack:Packet.Serial.t ->
  blocks:Packet.Header.sack_block list ->
  reo_wnd:float ->
  on_ack:(seq:Packet.Serial.t -> sent_at:float -> was_retx:bool -> unit) ->
  on_sack:(seq:Packet.Serial.t -> sent_at:float -> was_retx:bool -> unit) ->
  on_lost:(Packet.Serial.t -> unit) ->
  feedback_summary
(** Streaming feedback digest, with no per-cover list materialisation —
    the fast path for bulk cumulative advances over trunk- and LFN-sized
    windows.  [on_ack] fires for every cumulative-ack cover and
    [on_sack] for every fresh SACK cover, each ascending, all acks
    before all sacks (so a single callback passed to both observes the
    merged covers in globally ascending sequence order).  [on_lost]
    fires ascending for every fresh loss inference, after all covers:
    dupthresh holes, and repairs overtaken by a number sent more than
    [reo_wnd] seconds after them (the reordering window; a connection
    passes a quarter of its minimum RTT).  [sent_at] is the cover's
    first transmission time.  The repair check looks only at the head
    of a send-ordered FIFO of the repairs below the dupthresh point, so
    a digest still costs what it changes. *)

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

val runs_held : t -> int * int
(** [(sacked_runs, lost_runs)] currently held by the run-length state —
    introspection for the adversarial fragmentation tests and benches. *)

val stats_sent : t -> int
val stats_retx : t -> int
val stats_acked : t -> int

val stats_expired : t -> int
(** Numbers {!mark_expired} has inferred lost so far. *)
