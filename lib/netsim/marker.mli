(** DiffServ edge marker.

    A per-flow token bucket with the flow's negotiated committed rate
    (the AF "target rate" [g]).  Conforming packets are coloured
    {!Mark.Green} (in-profile), the excess {!Mark.Red} (out-of-profile).
    This is a two-colour srTCM-style marker, the conditioning the EuQoS
    NRT class applies at the ingress. *)

type t

val create : sim:Engine.Sim.t -> committed_rate_bps:float -> burst:int -> t

val mark : t -> Frame.t -> unit
(** Colour the frame in place according to current conformance. *)

val green_count : t -> int
val red_count : t -> int
