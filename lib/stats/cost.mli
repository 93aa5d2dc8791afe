(** Abstract processing-cost model.

    The paper's QTP_light claim is about *algorithmic* receiver load:
    the RFC 3448 receiver maintains the loss-event history and
    periodically recomputes the average loss interval (work linear in
    the history), while the light receiver only flips bits in a
    reception map.  We expose that difference by charging named
    operation counts at each step; experiments report totals and
    per-packet averages.

    Counters are plain name-keyed integers; memory watermarks track
    the largest live size of a named structure. *)

type t

val create : unit -> t

val charge : t -> ?ops:int -> string -> unit
(** Add [ops] (default 1) units to the named counter. *)

val watermark : t -> string -> int -> unit
(** Record the current size of a named structure; keeps the max. *)

val ops : t -> string -> int
(** Total of one counter (0 if never charged). *)

val total_ops : t -> int
(** Sum across all counters. *)

val high_water : t -> string -> int

val counters : t -> (string * int) list
(** All counters, sorted by name. *)
