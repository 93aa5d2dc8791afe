(** VTP segments as simulator frame bodies, and frame construction. *)

type Netsim.Frame.body += Vtp of Packet.Segment.t

let frame_of ~sim ~flow_id segment =
  Netsim.Frame.make ~uid:(Netsim.Frame.fresh_uid ()) ~flow_id
    ~size:(Packet.Segment.size segment)
    ~born:(Engine.Sim.now sim) (Vtp segment)

(* Domain-local (not shared) so parallel simulations never race; the
   id is a debugging label, unique within a domain's run. *)
let next_pkt_id = Domain.DLS.new_key (fun () -> ref 0)

let segment ~flow_id ~hdr ~payload =
  let c = Domain.DLS.get next_pkt_id in
  incr c;
  Packet.Segment.make ~id:!c ~flow_id ~hdr ~payload
