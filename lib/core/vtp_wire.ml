(** VTP segments as simulator frame bodies, and frame construction. *)

let packet_size = 1500
let payload = packet_size - Packet.Header.data_header_bytes

type Netsim.Frame.body += Vtp of Packet.Segment.t

let frame_of ~flow_id segment =
  Netsim.Frame.make ~uid:(Netsim.Frame.fresh_uid ()) ~flow_id
    ~size:(Packet.Segment.size segment) (Vtp segment)
