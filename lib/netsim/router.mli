(** Flow-id based demultiplexer.

    The simulator routes by flow identifier: a router maps each flow to a
    next-hop sink (typically [Link.send] of the egress link, or a
    terminal receive callback).  A frame of an unknown flow is counted
    as unroutable and discarded.

    Routes are kept in an array indexed by flow id, sized by the largest
    id routed: topologies number their flows densely from 0, and a frame
    is forwarded without hashing or allocating. *)

type t

val create : unit -> t

val add_route : t -> flow_id:int -> (Frame.t -> unit) -> unit
(** Route [flow_id]'s frames to the sink, replacing any earlier route.
    Raises [Invalid_argument] if [flow_id] is negative. *)

val forward : t -> Frame.t -> unit
(** Deliver a frame to its flow's route.  A frame whose id has no route
    (negative, past every routed id, or never added) is counted in
    {!unroutable}. *)

val unroutable : t -> int
