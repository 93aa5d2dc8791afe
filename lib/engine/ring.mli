(** Growable circular FIFO with allocation-free steady-state push/pop.

    A drop-in replacement for [Queue.t] on simulation hot paths: the
    backing array doubles on overflow, and popped slots are overwritten
    with the [dummy] element so the ring never retains references to
    values it no longer holds. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] pads unused array slots; it is never returned. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail.  Amortized O(1), allocation-free unless the
    ring must grow. *)

val pop : 'a t -> 'a
(** Remove the head.  Raises [Invalid_argument] when empty. *)
