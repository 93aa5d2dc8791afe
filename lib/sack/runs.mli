(** Run-length position sets: sorted, coalesced, half-open [[lo, hi)]
    runs over monotone absolute positions, held in growable parallel
    [int] arrays.  Searched by binary seek and edited by splice, so an
    operation costs O(log runs) plus the runs it touches, never the
    width of the positions covered.  The arrays are exposed so hot
    loops can walk the runs without a callback. *)

type t = {
  mutable lo : int array;
  mutable hi : int array;
  mutable len : int;  (** live runs are indices [[0, len)] *)
}

val create : int -> t
(** [create cap] is an empty set with room for [cap] runs before its
    first growth.  [create 0] allocates no arrays until the first
    insertion. *)

val seek : t -> int -> int
(** Smallest index whose run ends strictly after the position — the
    only run that can contain it ([len] when none does). *)

val mem : t -> int -> bool

val add : t -> int -> int -> unit
(** [add t l h] covers [[l, h)], coalescing with every overlapping or
    touching run. *)

val remove : t -> int -> int -> unit
(** [remove t l h] uncovers [[l, h)], trimming straddlers and splitting
    a run that strictly contains it. *)

val trim_below : t -> int -> unit
(** Drop every position below the given one. *)

val kth_from_top : t -> int -> int
(** Position of the [k]-th highest covered point, or [min_int] when
    fewer than [k] points are covered. *)

val iter_gaps : t -> int -> int -> (int -> int -> unit) -> unit
(** [iter_gaps t l h f] applies [f gl gh] to every maximal uncovered gap
    within [[l, h)], ascending. *)
