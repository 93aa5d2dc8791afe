(** Sender-side reliability policy engine.

    The composition layer gives each transmission opportunity to this
    engine, which decides between a retransmission (a loss the policy
    still cares about) and fresh data.  Policies:

    - [Unreliable]: losses are never retransmitted; the forward point
      chases the highest sent number so the receiver never waits.
    - [Partial]: retransmit up to [max_retx] times and only while the
      segment is younger than [deadline] seconds; afterwards the segment
      is abandoned and the forward point moves past it.  This is the
      partial-reliability service multimedia wants (a late frame is a
      useless frame).
    - [Full]: retransmit until acknowledged.

    The engine consumes {!Scoreboard} loss signals; it owns the
    retransmission queue and the abandon decisions. *)

type policy =
  | Unreliable
  | Partial of { max_retx : int; deadline : float }
  | Full

val pp_policy : Format.formatter -> policy -> unit

type decision =
  | Retransmit of Packet.Serial.t
  | Fresh_data
      (** Nothing (left) to repair: send a new sequence number. *)

type t

val create :
  ?cost:Stats.Cost.t ->
  ?trace:Trace.Sink.t ->
  policy ->
  scoreboard:Scoreboard.t ->
  unit ->
  t
(** [trace] makes the engine record each abandon decision. *)

val on_loss : t -> now:float -> Packet.Serial.t -> unit
(** Feed one fresh loss inference from the scoreboard — the streaming
    twin of {!on_losses} for call sites that hold losses in a scratch
    buffer rather than a list. *)

val on_losses : t -> now:float -> Packet.Serial.t list -> unit
(** Feed fresh loss inferences from the scoreboard. *)

val next_decision : t -> now:float -> decision
(** What to put in the next transmission opportunity.  A [Retransmit]
    decision must be honoured by calling [Scoreboard.on_send ~is_retx:true]
    (the composition layer does). *)

val fwd_point : t -> highest_sent:Packet.Serial.t -> Packet.Serial.t
(** The forward point to advertise in the next data header: the lowest
    number the receiver must still wait for.  Everything below it is
    given up on ({!Scoreboard.abandon_below}), so the scoreboard's
    [una] moves to it. *)

val abandoned : t -> int
(** Segments the policy gave up on. *)

val retransmissions_queued : t -> int

val abandoned_held : t -> Packet.Serial.t list
(** The abandoned numbers the engine still remembers, ascending.  Every
    {!fwd_point} trims the set at the [una] it leaves, so it never
    outgrows the window. *)
