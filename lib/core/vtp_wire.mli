(** VTP segments as simulator frame bodies.

    [Vtp] is the open-variant tag carrying a {!Packet.Segment.t} through
    {!Netsim}; [segment] and [frame_of] stamp fresh identities. *)

type Netsim.Frame.body += Vtp of Packet.Segment.t

val segment :
  flow_id:int -> hdr:Packet.Header.t -> payload:int -> Packet.Segment.t

val frame_of :
  sim:Engine.Sim.t -> flow_id:int -> Packet.Segment.t -> Netsim.Frame.t
