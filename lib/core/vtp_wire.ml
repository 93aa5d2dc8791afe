(** VTP segments as simulator frame bodies, and frame construction. *)

type Netsim.Frame.body += Vtp of Packet.Segment.t

let frame_of ~sim ~flow_id segment =
  Netsim.Frame.make ~uid:(Netsim.Frame.fresh_uid ()) ~flow_id
    ~size:(Packet.Segment.size segment)
    ~born:(Engine.Sim.now sim) (Vtp segment)
