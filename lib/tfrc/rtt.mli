(** Sender-side round-trip-time estimator (RFC 3448 §4.3).

    [R = q*R + (1-q)*R_sample] with [q = 0.9].  RFC 3448's timeout
    value [t_RTO = 4*R] is written where TFRC uses it, in the throughput
    equation ({!Equation.rate}) and the sender's nofeedback timer; it is
    not a retransmission timer. *)

type t

val create : initial:float -> unit -> t
(** [initial] seeds the estimate used before the first sample. *)

val sample : t -> float -> unit
(** Feed one measurement (seconds, must be positive). The first sample
    replaces the seed entirely, in both {!smoothed} and {!min_rtt}. *)

val reseed : t -> float -> unit
(** Replace the estimate and the minimum with a fresh seed (handover
    onto a link with a declared latency) and forget the sample count,
    so the next measurement replaces the seed entirely as at creation. *)

val smoothed : t -> float
(** Current estimate (the seed if no sample yet). *)

val min_rtt : t -> float
(** Smallest sample since creation or the last {!reseed} (the seed if
    no sample yet).  The SACK scoreboard's reordering window is a
    quarter of it (RFC 8985 §6.2). *)

val has_sample : t -> bool
