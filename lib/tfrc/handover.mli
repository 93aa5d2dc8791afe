(** TFRC handover rate policies (Mehani, Boreli, Jourjon).

    What the congestion-control plane does with its state when the flow
    migrates to a link with different declared parameters:

    - [`Keep] — carry rate, RTT estimate and loss history over
      unchanged; the feedback loop discovers the new path the slow way
      (and overshoots badly on a downgrade).
    - [`Reset] — restart as if the connection were new: slow start, the
      RFC 3448 initial window of two segments per declared RTT, empty
      loss history.
    - [`Informed] — re-seed from the new link's declaration: the rate
      starts at half the declared bandwidth, the RTT estimate at the
      declared RTT, and the loss history at the interval whose equation
      rate matches that target. *)

type policy = [ `Keep | `Reset | `Informed ]

type link_info = {
  bandwidth_bps : float;  (** declared bandwidth of the new link *)
  rtt : float;  (** declared path round-trip time, seconds *)
}

val policy_name : policy -> string
(** ["keep"] / ["reset"] / ["informed"]. *)

val reset_rate : s:float -> rtt:float -> float
(** Reset starting rate, bytes/s, for segment size [s] bytes. *)

val informed_rate : link_info -> float
(** Informed starting rate, bytes/s. *)

val informed_p : s:int -> link_info -> float
(** The loss-event rate at which {!Equation.rate} on the new link
    yields {!informed_rate} — the loss-history re-seed value. *)

val link_of : bandwidth_bps:float -> rtt:float -> link_info
(** Raises [Invalid_argument] on non-positive parameters. *)
