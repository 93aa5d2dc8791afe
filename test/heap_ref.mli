(** Imperative binary min-heap: the reference the timer wheel is
    checked against ([Test_sched] replays recorded scheduler operation
    streams through both).

    The heap is polymorphic in its element type; the ordering is fixed at
    creation time by a [compare] function following the convention of
    [Stdlib.compare].  All operations are the textbook complexities:
    [add] and [pop_min] are O(log n), [min] is O(1). *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
(** [create ~compare] is an empty heap ordered by [compare]. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit
(** Insert an element; duplicates are allowed. *)

val min : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop_min : 'a t -> 'a option
(** Remove and return the smallest element. *)

val clear : 'a t -> unit
(** Remove every element, keeping the underlying storage. *)
