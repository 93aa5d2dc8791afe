(** E17: large-BDP (long-fat-network) profile mixes.

    One QTP_AF flow (committed to a quarter of the bottleneck), one
    QTP_light flow and one TCP NewReno flow share an AF-class RIO
    bottleneck at 250 and 500 ms RTTs with the buffer sized to half the
    bandwidth-delay product.  Windows run to thousands of packets per
    flow, exercising the run-length SACK state end-to-end: QTP_AF must
    still clear its assurance while QTP_light and TCP split the
    excess. *)

val run : ?seed:int -> unit -> Stats.Table.t
