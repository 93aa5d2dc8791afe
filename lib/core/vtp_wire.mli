(** VTP segments as simulator frame bodies, and their size.

    [Vtp] is the open-variant tag carrying a {!Packet.Segment.t} through
    {!Netsim}; [frame_of] stamps each frame with a fresh uid and its
    connection's flow id. *)

val packet_size : int
(** On-wire bytes of every QTP data segment: 1500. *)

val payload : int
(** Application bytes each data segment carries: {!packet_size} less
    {!Packet.Header.data_header_bytes}. *)

type Netsim.Frame.body += Vtp of Packet.Segment.t

val frame_of : flow_id:int -> Packet.Segment.t -> Netsim.Frame.t
