(** Growable unboxed float vector — an allocation-light replacement for
    [float list] sample accumulators (one word per sample amortised
    versus five for a cons + boxed float).  Doubling growth; samples
    keep insertion order. *)

type t

val create : unit -> t
(** An empty vector with room for 16 samples. *)

val push : t -> float -> unit

val to_array : t -> float array
(** The samples in insertion order (a fresh array). *)

val iter : (float -> unit) -> t -> unit
