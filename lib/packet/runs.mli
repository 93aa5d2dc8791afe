(** Run-length position sets: sorted, coalesced, half-open [[lo, hi)]
    runs over monotone absolute positions, each carrying one [int] tag
    unless the set is untagged, held in growable parallel [int] arrays.
    Searched by binary seek and edited by splice: an edit shifts
    whichever side of it holds fewer runs, by plain stores, so an
    operation costs O(log runs) plus the runs on the shorter side of
    its edit, never the width of the positions covered.  The record is
    private and its arrays are exposed so hot loops can walk the runs
    without a callback; only this module builds or edits a set.

    The receive window's out-of-order ranges (tagged with a recency
    stamp) and the TFRC loss history's holes (tagged with a birth
    epoch) are tagged sets; the SACK scoreboard's SACKed and lost sets
    and the abandoned numbers of the reliability plane are untagged
    ones. *)

type t = private {
  mutable lo : int array;
  mutable hi : int array;
  mutable tag : int array;  (** empty in an untagged set *)
  tagged : bool;
  mutable fst : int;
  mutable len : int;  (** live runs are indices [[fst, len)] *)
}

val create : unit -> t
(** An empty tagged set.  Its arrays are allocated on the first
    insertion, at 8 runs, and double when full; a full set first
    reclaims the dead front that {!drop_first}, {!trim_below} and
    deletions leave, and grows only when there is none. *)

val create_untagged : unit -> t
(** An empty set that holds no tags: it has no tag array to move or
    grow.  Its runs are added with {!cover}. *)

val length : t -> int
(** Live runs. *)

val seek : t -> int -> int
(** Smallest live index whose run ends strictly after the position —
    the only run that can contain it ([len] when none does). *)

val mem : t -> int -> bool

val add : t -> int -> int -> tag:int -> unit
(** [add t l h ~tag], for a tagged set, covers [[l, h)], coalescing
    with every overlapping or touching run; the coalesced run takes
    [tag]. *)

val cover : t -> int -> int -> unit
(** [add] without a tag, for an untagged set. *)

val remove : t -> int -> int -> bool
(** [remove t l h] uncovers [[l, h)], trimming straddlers and splitting
    a run that strictly contains it.  What is left of a run keeps its
    tag, in both halves of a split.  Returns whether any position of
    [[l, h)] was covered. *)

val drop_first : t -> unit
(** Drop the lowest run, in O(1).  The set must not be empty. *)

val trim_below : t -> int -> unit
(** Drop every position below the given one, in O(log runs). *)

val clear : t -> unit

val kth_from_top : t -> int -> int
(** Position of the [k]-th highest covered point, or [min_int] when
    fewer than [k] points are covered. *)

val iter_gaps : t -> int -> int -> (int -> int -> unit) -> unit
(** [iter_gaps t l h f] applies [f gl gh] to every maximal uncovered gap
    within [[l, h)], ascending. *)
