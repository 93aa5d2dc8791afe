(** Rate-adaptive media source.

    The multimedia use the paper motivates rarely streams at a fixed
    rate: the encoder adapts its target bitrate to what the transport
    can carry.  This source polls the connection's allowed rate once a
    second and switches between configured encoding ladder rungs
    (bitrates), always picking the highest rung at most
    [headroom × transport rate].  Frames are then generated like
    {!Media} at the selected rung. *)

type t

val start :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  ladder_bps:float list ->
  transport_rate_bps:(unit -> float) ->
  ?fps:float ->
  push:(int -> unit) ->
  ?stop_at:float ->
  unit ->
  t
(** Start at time 0.  [ladder_bps] must be non-empty; sorted
    internally.  The headroom is 0.85 (encode below the transport
    estimate), packets carry 1431 payload bytes, and [fps] defaults to
    25. *)

val current_rung_bps : t -> float

val switches : t -> int
(** Ladder switches so far (quality changes the viewer would see). *)

val frames_emitted : t -> int

val rung_time_fractions : t -> (float * float) list
(** (rung, fraction of elapsed time spent at it), descending rungs. *)
