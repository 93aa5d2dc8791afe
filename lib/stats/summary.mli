(** Descriptive statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val of_list : float list -> t
val of_array : float array -> t
(** Empty input yields [n = 0] and NaN moments. *)

val cov : t -> float
(** Coefficient of variation, [stddev / mean]; NaN if mean is 0. *)

val percentile : float array -> float -> float
(** [percentile xs q] for [q] in [\[0,1\]], linear interpolation between
    order statistics.  Sorts a copy; raises [Invalid_argument] on empty
    input or q outside [0,1]. *)
