(** The TFRC sender (RFC 3448 §4) with the gTFRC extension.

    The sender owns the allowed transmit rate [X] and the transmission
    schedule; *what* goes into each transmission opportunity (new data
    or a retransmission) is the composition layer's business — the
    sender just invokes [on_transmit] every inter-packet interval.

    Rate update on feedback [(x_recv, p)]:
    - no loss yet ([p = 0]): slow start, [X := min(2X, 2*x_recv)];
    - otherwise [X := max(min(X_calc, 2*x_recv), s/t_mbi)] with [X_calc]
      from {!Equation}.

    {b gTFRC} (Lochin et al., the QoS-aware specialisation used by
    QTP_AF): when a target rate [g] was negotiated with the AF class,
    the sender never descends below it — [X := max(X, g)] — because the
    network contractually forwards [g] worth of in-profile (Green)
    traffic.  Setting [min_rate_bps = 0] recovers standard TFRC. *)

type params = {
  packet_size : int;  (** segment payload+header bytes, the equation [s] *)
  initial_rtt : float;  (** seed RTT before the first measurement *)
  min_rate_bps : float;  (** gTFRC floor [g] in bits/s; 0 disables *)
  max_rate_bps : float option;  (** application/interface ceiling *)
  oscillation_damping : bool;
      (** RFC 3448 §4.5: scale the instantaneous sending rate by
          [sqrt(R_sample)/R_sqmean] so that queueing-delay oscillations
          on underbuffered paths are damped.  Off by default (the RFC
          makes it optional). *)
}

val default_params : params
(** 1500 B segments, 0.5 s initial RTT, no floor, no ceiling, no
    oscillation damping. *)

val t_mbi : float
(** The maximum backoff interval of RFC 3448 §4.3: 64 s. *)

type t

val create :
  sim:Engine.Sim.t ->
  ?cost:Stats.Cost.t ->
  ?trace:Trace.Sink.t ->
  params ->
  on_transmit:(unit -> bool) ->
  unit ->
  t
(** [on_transmit] is called at each transmission opportunity; it must
    send exactly one segment of [packet_size] bytes and return [true],
    or return [false] if the application has nothing to send (the
    sender then idles until {!notify_data}).  [trace] makes the sender
    record RTT samples and every rate update into the flight
    recorder. *)

val start : t -> unit
(** Begin transmitting (schedules the first opportunity immediately). *)

val stop : t -> unit

val on_feedback :
  t -> tstamp_echo:float -> t_delay:float -> x_recv:float -> p:float -> unit
(** Process a receiver report (either feedback plane). *)

val notify_data : t -> unit
(** Wake an idle sender: the application has data again. *)

val apply_handover : t -> policy:Handover.policy -> link:Handover.link_info -> unit
(** React to a path migration per the chosen {!Handover.policy}:
    [`Keep] does nothing; [`Reset] returns to slow start at
    {!Handover.reset_rate} with the RTT estimator re-seeded to the
    declared latency; [`Informed] jumps to {!Handover.informed_rate}
    with the RTT re-seeded and [p] set to {!Handover.informed_p}.  The
    non-trivial policies re-arm the nofeedback timer and, when the rate
    rose, bring the next send opportunity forward. *)

val rate_bps : t -> float
(** Current allowed sending rate. *)

val instantaneous_rate_bps : t -> float
(** The rate actually used for packet spacing — equals {!rate_bps}
    unless oscillation damping is active. *)

val rtt : t -> float
(** Smoothed RTT estimate (seed until first feedback). *)

val min_rtt : t -> float
(** Smallest RTT sample ({!Rtt.min_rtt}): the seed until the first
    feedback, and again after a handover policy reseeds the estimate. *)

val has_rtt_sample : t -> bool

val in_slow_start : t -> bool

val packets_sent : t -> int
(** Transmission opportunities consumed ([on_transmit] returned true). *)

val feedbacks_processed : t -> int

val nofeedback_expiries : t -> int

val params : t -> params
