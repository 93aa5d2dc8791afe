(** Event recording and windowed-rate extraction.

    A [t] accumulates (time, bytes) arrival events for one flow; the
    analysis side turns them into goodput over an interval or a
    per-window throughput series (for smoothness/CoV measurements). *)

type t

val create : unit -> t

val record : t -> time:float -> bytes:int -> unit
(** Events must be recorded in non-decreasing time order. *)

val total_bytes : t -> int
val count : t -> int

val rate_bps : t -> from_:float -> until:float -> float
(** Average rate over [\[from_, until)] in bits/s. *)

val windowed_rates_bps :
  t -> from_:float -> until:float -> window:float -> float array
(** Rate in each consecutive [window]-second bin of [\[from_, until)].
    Partial trailing bins are discarded. *)

val interarrival_times : t -> float array
