(** VTP segments as simulator frame bodies.

    [Vtp] is the open-variant tag carrying a {!Packet.Segment.t} through
    {!Netsim}; [frame_of] stamps each frame with a fresh uid and its
    connection's flow id. *)

type Netsim.Frame.body += Vtp of Packet.Segment.t

val frame_of :
  sim:Engine.Sim.t -> flow_id:int -> Packet.Segment.t -> Netsim.Frame.t
