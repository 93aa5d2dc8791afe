(** Fixed-bin histograms with a terminal rendering, for delay /
    occupancy distributions without external plotting.

    Only the tests use it today; its planned user is the metrics fold
    over the trace stream (ROADMAP.md, item 4). *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Bins partition [\[lo, hi)] evenly; out-of-range samples land in the
    first/last bin.  [bins >= 1], [lo < hi]. *)

val of_samples : ?bins:int -> float array -> t
(** Bounds from the data (min..max, padded when degenerate); [bins]
    defaults to 20.  Raises [Invalid_argument] on empty input. *)

val add : t -> float -> unit

val count : t -> int
(** Total samples. *)

val bin_counts : t -> int array

val bin_bounds : t -> (float * float) array
(** [(lo_i, hi_i)] of every bin. *)

val render : ?width:int -> t -> string
(** One line per bin: range, count, and a bar scaled to [width]
    (default 40) characters for the fullest bin. *)
