(** 32-bit serial (wrap-around) sequence numbers, RFC 1982 style.

    Transport sequence numbers live on a circle of 2^32 values; ordering
    is only meaningful for numbers within half the space of each other,
    which is the invariant every windowed protocol maintains.  [compare]
    implements that circular order: [a < b] iff the signed distance
    [b - a] (mod 2^32) is in (0, 2^31). *)

type t

val zero : t
val of_int : int -> t
(** Truncates to the low 32 bits. *)

val to_int : t -> int
(** In [\[0, 2^32)]. *)

val succ : t -> t
val pred : t -> t
val add : t -> int -> t
val diff : t -> t -> int
(** [diff a b] is the signed circular distance [a - b], in
    [\[-2^31, 2^31)].  [diff] and [add] are inverses:
    [add b (diff a b) = a]. *)

val compare : t -> t -> int
(** Circular comparison (see module doc). Total only within a half-space
    window. *)

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val equal : t -> t -> bool
val max : t -> t -> t
val min : t -> t -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val iter_range : (t -> unit) -> t -> t -> unit
(** [iter_range f lo hi] applies [f] to [lo; lo+1; …; hi-1] in order
    (nothing if [lo >= hi]); the count is the circular distance. *)
