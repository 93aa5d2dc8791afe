(** Synthetic video workload.

    A simple GoP-structured encoder model: every [gop] frames an
    I-frame, otherwise P-frames, sizes log-normal-ish around the
    configured means.  Frames are chopped into transport packets and
    pushed into a {!Qtp.Source} queue at the frame rate — the workload
    the paper's mobile-streaming motivation describes. *)

type params = {
  fps : float;
  gop : int;  (** frames per group-of-pictures (I-frame period) *)
  mean_i_bytes : float;
  mean_p_bytes : float;
  jitter : float;  (** multiplicative size noise, e.g. 0.2 *)
  payload : int;  (** transport payload bytes per packet *)
}

val default_params : params
(** 25 fps, GoP 12, 9000 B I-frames, 3000 B P-frames, 0.2 jitter,
    1431 B payload (1500 B wire segments). *)

type t

val start :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  params ->
  push:(int -> unit) ->
  ?stop_at:float ->
  unit ->
  t
(** Drive [push] (from [Qtp.Source.queued]) with the packetised frame
    schedule, from time 0. *)

val frames_emitted : t -> int
val bytes_emitted : t -> int
val mean_rate_bps : params -> float
(** The long-run average rate this parameterisation generates. *)
