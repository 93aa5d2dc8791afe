type t = {
  sim : Engine.Sim.t;
  flow_id : int;
  sender : Tcp_sender.t;
  receiver : Tcp_receiver.t;
  mutable delivered_bytes : int;
  (* In-order delivery tap; [None] costs one branch per advance. *)
  mutable on_deliver : (bytes:int -> unit) option;
}

(* Domain-local (not shared) so parallel simulations never race; a
   frame uid only needs to be unique within its own simulation. *)
let next_uid = Domain.DLS.new_key (fun () -> ref 0)

let uid () =
  let c = Domain.DLS.get next_uid in
  incr c;
  !c

let create ~sim ~endpoint ?(start_at = 0.0) () =
  let flow_id = endpoint.Netsim.Topology.flow_id in
  (* Receiver side: deliver segments, emit ACK frames on the reverse
     path, and count in-order progress as goodput. *)
  let last_cum = ref Packet.Serial.zero in
  let send_ack ack =
    let frame =
      Netsim.Frame.make ~uid:(uid ()) ~flow_id ~size:Tcp_wire.ack_size
        ~born:(Engine.Sim.now sim) (Tcp_wire.Ack ack)
    in
    endpoint.Netsim.Topology.to_sender frame
  in
  let receiver = Tcp_receiver.create ~send_ack () in
  let trace = Trace.Sink.of_sim sim ~flow:flow_id in
  let trace = Some trace in
  (* Sender side: emit data frames on the forward path. *)
  let transmit seg =
    if Trace.Sink.on trace then
      Trace.Sink.emit trace
        (Trace.Event.Tcp_send
           { seq = seg.Tcp_wire.seq; retx = seg.Tcp_wire.is_retx });
    let frame =
      Netsim.Frame.make ~uid:(uid ()) ~flow_id
        ~size:(Tcp_wire.seg_size ~payload:Tcp_sender.packet_size)
        ~born:(Engine.Sim.now sim) (Tcp_wire.Seg seg)
    in
    endpoint.Netsim.Topology.to_receiver frame
  in
  let sender = Tcp_sender.create ~sim ~transmit () in
  let t =
    { sim; flow_id; sender; receiver; delivered_bytes = 0; on_deliver = None }
  in
  (* Delivery plumbing. *)
  endpoint.Netsim.Topology.on_receiver_rx (fun frame ->
      match frame.Netsim.Frame.body with
      | Tcp_wire.Seg seg ->
          Tcp_receiver.on_segment receiver seg;
          let cum = Tcp_receiver.cum_ack receiver in
          let advance = Packet.Serial.diff cum !last_cum in
          if advance > 0 then begin
            let bytes = advance * Tcp_sender.packet_size in
            t.delivered_bytes <- t.delivered_bytes + bytes;
            (match t.on_deliver with Some f -> f ~bytes | None -> ());
            last_cum := cum
          end
      | _ -> ());
  endpoint.Netsim.Topology.on_sender_rx (fun frame ->
      match frame.Netsim.Frame.body with
      | Tcp_wire.Ack ack ->
          Tcp_sender.on_ack sender ack;
          if Trace.Sink.on trace then
            Trace.Sink.emit trace
              (Trace.Event.Tcp_ack_rcvd
                 {
                   cum_ack = ack.Tcp_wire.cum_ack;
                   cwnd = Tcp_sender.cwnd sender;
                   ssthresh = Tcp_sender.ssthresh sender;
                 })
      | _ -> ());
  ignore
    (Engine.Sim.schedule_at sim start_at (fun () -> Tcp_sender.start sender));
  t

let sender t = t.sender
let receiver t = t.receiver

let set_on_deliver t f =
  t.on_deliver <-
    Some
      (match t.on_deliver with
      | None -> f
      | Some g ->
          fun ~bytes ->
            g ~bytes;
            f ~bytes)

let goodput_series t =
  let s = Stats.Series.create () in
  Stats.Series.record s ~time:(Engine.Sim.now t.sim) ~bytes:t.delivered_bytes;
  s
