(** DiffServ drop-precedence colour of a packet.

    The EuQoS Non-Real-Time class the paper targets is a two-colour
    DiffServ/AF service: traffic within the negotiated profile is marked
    in-profile ([Green], low drop precedence) by the edge, excess traffic
    is out-of-profile ([Red], high drop precedence).  Best-effort traffic
    never crosses a marker. *)

type t = Green | Red | Best_effort

val equal : t -> t -> bool
