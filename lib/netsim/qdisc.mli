(** Queueing disciplines for link buffers.

    Three disciplines cover the paper's scenarios:
    - [droptail]: bounded FIFO, tail drop.
    - [red]: FIFO with RED early-drop at enqueue.
    - [rio]: the DiffServ/AF two-profile queue (RED with In and Out) —
      in-profile (Green) packets see a RED estimator over green-only
      occupancy with lenient thresholds; out-of-profile (Red) and
      best-effort packets see an estimator over *total* occupancy with
      aggressive thresholds.  This is what gives an AF class its
      bandwidth assurance. *)

type stats = {
  mutable offered : int;
  mutable accepted : int;
  mutable dropped : int;
  mutable dropped_green : int;
  mutable dropped_nongreen : int;
  mutable dequeued : int;
  mutable ce_marked : int;  (** accepted with Congestion Experienced set *)
}

type t

val droptail : capacity_pkts:int -> t

val red :
  ?capacity_pkts:int -> ?ecn:bool -> params:Red.params -> rng:Engine.Rng.t ->
  unit -> t
(** RED early drop plus a hard tail-drop at [capacity_pkts]
    (default 2.5x max_th).  With [ecn] (RFC 3168), an early "drop"
    decision on an ECN-capable ([Frame.ect]) frame marks it CE and
    enqueues it instead; non-ECT frames and hard-limit overflows still
    drop. *)

val rio :
  ?capacity_pkts:int ->
  in_params:Red.params ->
  out_params:Red.params ->
  rng:Engine.Rng.t ->
  unit ->
  t
(** The AF queue (capacity default 2.5x the in-profile max_th).  Its
    early decisions drop: it marks no frame CE. *)

val enqueue : t -> now:float -> Frame.t -> bool
(** [false] = the frame was dropped (tail or early). *)

val dequeue : t -> now:float -> Frame.t option

val length_pkts : t -> int
val length_bytes : t -> int
val stats : t -> stats
