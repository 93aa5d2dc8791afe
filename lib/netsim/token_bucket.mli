(** Token bucket meter.

    Tokens (bytes) accrue at [rate_bps / 8] bytes per second up to
    [burst] bytes.  [conform] lazily refills from the elapsed virtual
    time, so the bucket needs no timers of its own. *)

type t

val create : rate_bps:float -> burst:int -> now:float -> t
(** Starts full. [rate_bps] is the committed information rate in
    bits/s; [burst] the bucket depth in bytes. *)

val conform : t -> now:float -> bytes:int -> bool
(** [true] iff [bytes] tokens were available (they are then consumed).
    A non-conforming packet consumes nothing. *)

val level : t -> now:float -> float
(** Current token level in bytes (after refill). *)
