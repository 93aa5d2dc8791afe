(* Tap a live simulation for the invariant checker: endpoint send /
   delivery hooks, link drops, mangler fault accounting and the
   {!Qtp.Inspect} rate-sample hook all feed one {!Invariants.t}. *)

let vtp_uid (frame : Netsim.Frame.t) =
  match frame.Netsim.Frame.body with
  | Qtp.Vtp_wire.Vtp _ -> Some frame.Netsim.Frame.uid
  | _ -> None

let instrument_mangler checker ~sim (m : Netsim.Mangler.t) =
  let now () = Engine.Sim.now sim in
  let feed ev = Invariants.feed checker ev in
  (* A duplicate is a brand-new frame (fresh uid) injected mid-network:
     register it as sent so its later delivery (or drop) balances. *)
  Netsim.Mangler.on_duplicate m (fun ~orig ~dup ->
      match vtp_uid orig with
      | Some _ ->
          feed
            (Invariants.Sent
               {
                 at = now ();
                 flow = dup.Netsim.Frame.flow_id;
                 uid = dup.Netsim.Frame.uid;
               })
      | None -> ());
  (* A corrupted frame keeps its uid but its body is wrapped, so no
     endpoint tap will ever recognise it as VTP again — settle it as
     dropped at the instant of corruption. *)
  Netsim.Mangler.on_corrupt m (fun frame ->
      match vtp_uid frame with
      | Some uid ->
          feed
            (Invariants.Dropped
               { at = now (); flow = frame.Netsim.Frame.flow_id; uid })
      | None -> ())

let instrument checker (topo : Netsim.Topology.t) =
  let open Netsim in
  let sim = topo.Topology.sim in
  let now () = Engine.Sim.now sim in
  let feed ev = Invariants.feed checker ev in
  (* Sub-cases inside one experiment reuse flow ids with fresh
     connections; reset the per-flow feedback state. *)
  feed Invariants.Epoch;
  (* Only the protocol under test is tracked: the checks are stated over
     VTP connections.  Every frame allocator draws from
     [Frame.fresh_uid], so uids are unique across flows, directions and
     transports. *)
  let hi_sent : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let note_sent flow (frame : Frame.t) =
    match frame.Frame.body with
    | Qtp.Vtp_wire.Vtp seg ->
        feed (Invariants.Sent { at = now (); flow; uid = frame.Frame.uid });
        (match seg.Packet.Segment.hdr with
        | Packet.Header.Data d ->
            let s = Packet.Serial.to_int d.Packet.Header.seq in
            let prev =
              Option.value (Hashtbl.find_opt hi_sent flow) ~default:(-1)
            in
            if s > prev then Hashtbl.replace hi_sent flow s
        | _ -> ())
    | _ -> ()
  in
  let note_delivered flow frame =
    match vtp_uid frame with
    | Some uid -> feed (Invariants.Delivered { at = now (); flow; uid })
    | None -> ()
  in
  let note_feedback flow (frame : Frame.t) =
    match frame.Frame.body with
    | Qtp.Vtp_wire.Vtp
        { Packet.Segment.hdr = Packet.Header.Sack_feedback sf; _ } ->
        let blocks =
          List.map
            (fun b ->
              ( Packet.Serial.to_int b.Packet.Header.block_start,
                Packet.Serial.to_int b.Packet.Header.block_end ))
            sf.Packet.Header.blocks
        in
        let window_hi =
          Option.map (fun hi -> hi + 1) (Hashtbl.find_opt hi_sent flow)
        in
        feed
          (Invariants.Feedback
             {
               at = now ();
               flow;
               cum_ack = Packet.Serial.to_int sf.Packet.Header.cum_ack;
               blocks;
               window_hi;
             })
    | _ -> ()
  in
  Array.iteri
    (fun i (ep : Topology.endpoint) ->
      let flow = ep.Topology.flow_id in
      topo.Topology.endpoints.(i) <-
        {
          ep with
          Topology.to_receiver =
            (fun f ->
              note_sent flow f;
              ep.Topology.to_receiver f);
          (* Feedback is checked at emission: cum-ack monotonicity and
             SACK well-formedness are receiver properties, and the
             reverse path may legitimately reorder reports in flight. *)
          to_sender =
            (fun f ->
              note_sent flow f;
              note_feedback flow f;
              ep.Topology.to_sender f);
          on_receiver_rx =
            (fun sink ->
              ep.Topology.on_receiver_rx (fun f ->
                  note_delivered flow f;
                  sink f));
          on_sender_rx =
            (fun sink ->
              ep.Topology.on_sender_rx (fun f ->
                  note_delivered flow f;
                  sink f));
        })
    topo.Topology.endpoints;
  List.iter
    (fun link ->
      Link.on_drop link (fun (f : Frame.t) ->
          match vtp_uid f with
          | Some uid ->
              feed
                (Invariants.Dropped
                   { at = now (); flow = f.Frame.flow_id; uid })
          | None -> ());
      match Link.mangler link with
      | Some m -> instrument_mangler checker ~sim m
      | None -> ())
    topo.Topology.links

let install_rate_hook checker =
  Qtp.Inspect.install (fun s -> Invariants.feed checker (Invariants.Rate s))

let clear_rate_hook = Qtp.Inspect.clear

let with_checker f =
  let checker = Invariants.create () in
  install_rate_hook checker;
  Fun.protect ~finally:clear_rate_hook (fun () ->
      let result = f checker in
      Invariants.check_exn checker;
      result)
