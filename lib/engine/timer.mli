(** Restartable one-shot timer.

    Protocol state machines (RTO, TFRC nofeedback timer, feedback timer)
    need a timer that can be (re)armed and cancelled idempotently; this
    wraps {!Sim} scheduling with that discipline. *)

type t

val create : Sim.t -> on_expire:(unit -> unit) -> t
(** A disarmed timer; [on_expire] fires each time an armed deadline is
    reached without an intervening [stop]/[restart]. *)

val start : t -> after:float -> unit
(** Arm (or re-arm, replacing any pending deadline) to fire after
    [after] seconds of virtual time. *)

val stop : t -> unit
(** Disarm; no-op if not armed. *)

val is_armed : t -> bool

val deadline : t -> float
(** Absolute expiry time of the armed deadline; [infinity] when
    disarmed. *)
