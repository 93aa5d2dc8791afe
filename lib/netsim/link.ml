type stats = {
  mutable tx_frames : int;
  mutable tx_bytes : int;
  mutable lost_frames : int;
  mutable delivered : int;
}

type t = {
  sim : Engine.Sim.t;
  rate_bps : float;
  delay : float;
  qdisc : Qdisc.t;
  loss : Loss_model.t;
  mangler : Mangler.t option;
  name : string;
  mutable sink : (Frame.t -> unit) option;
  mutable on_drop : (Frame.t -> unit) option;
  mutable severed : bool;  (** [`Cut] handover: discard all traffic *)
  mutable busy : bool;
  mutable tx_frame : Frame.t;  (** frame being serialized while [busy] *)
  tx_done : unit -> unit;  (** reused serialization-done thunk *)
  wire : Frame.t Engine.Sim.line Lazy.t;
      (** propagation: the frames in flight.  Made at the first launch,
          since its delivery closes over the link itself. *)
  st : stats;
}

let connect t sink = t.sink <- Some sink

let on_drop t f = t.on_drop <- Some f

let dropped t ~reason frame =
  if Trace.Recorder.on () then
    Trace.Recorder.emit ~flow:frame.Frame.flow_id
      ~at:(Engine.Sim.now t.sim)
      (Trace.Event.Drop { link = t.name; reason; size = frame.Frame.size });
  match t.on_drop with Some f -> f frame | None -> ()

let deliver t frame =
  match t.sink with
  | None -> failwith (t.name ^ ": link has no sink")
  | Some sink ->
      t.st.delivered <- t.st.delivered + 1;
      sink frame

(* Propagation complete: the wire is the sim's delay line, which hands
   back frames in launch order (the delay is constant).  The mangler
   stage, when present, sits between the wire and the sink (it may
   hold, clone or damage the frame). *)
let arrive t frame =
  if t.severed then dropped t ~reason:Trace.Event.D_cut frame
  else
    match t.mangler with
    | Some m -> Mangler.push m ~emit:(fun f -> deliver t f) frame
    | None -> deliver t frame

(* Serialization reuses one preallocated thunk ([tx_done]) and the
   frame waits in [tx_frame]; propagation is a send on the wire, which
   files only its head in the wheel.  A forwarded frame costs no
   closure, and at most two of a link's events are in the wheel at
   once: its serialization and its wire's head. *)
let rec transmit t frame =
  t.busy <- true;
  t.tx_frame <- frame;
  let tx_time = 8.0 *. float_of_int frame.Frame.size /. t.rate_bps in
  Engine.Sim.post_after t.sim tx_time t.tx_done

and complete t =
  let frame = t.tx_frame in
  t.tx_frame <- Frame.dummy;
  t.st.tx_frames <- t.st.tx_frames + 1;
  t.st.tx_bytes <- t.st.tx_bytes + frame.Frame.size;
  if t.severed then dropped t ~reason:Trace.Event.D_cut frame
  else if Loss_model.drops t.loss then begin
    t.st.lost_frames <- t.st.lost_frames + 1;
    dropped t ~reason:Trace.Event.D_loss frame
  end
  else Engine.Sim.send (Lazy.force t.wire) frame;
  match Qdisc.dequeue t.qdisc ~now:(Engine.Sim.now t.sim) with
  | Some next -> transmit t next
  | None -> t.busy <- false

let create ~sim ~rate_bps ~delay ~qdisc ?(loss = Loss_model.none) ?mangler
    ?(name = "link") () =
  if not (rate_bps > 0.0) then
    invalid_arg
      (Printf.sprintf "Link.create: rate_bps %g is not above 0" rate_bps);
  if not (delay >= 0.0) then
    invalid_arg (Printf.sprintf "Link.create: delay %g is not 0 or more" delay);
  let rec t =
    {
      sim;
      rate_bps;
      delay;
      qdisc;
      loss;
      mangler;
      name;
      sink = None;
      on_drop = None;
      severed = false;
      busy = false;
      tx_frame = Frame.dummy;
      tx_done = (fun () -> complete t);
      wire = lazy (Engine.Sim.line sim ~delay ~dummy:Frame.dummy (arrive t));
      st = { tx_frames = 0; tx_bytes = 0; lost_frames = 0; delivered = 0 };
    }
  in
  t

let send t frame =
  if t.severed then dropped t ~reason:Trace.Event.D_cut frame
  else if t.busy then begin
    if not (Qdisc.enqueue t.qdisc ~now:(Engine.Sim.now t.sim) frame) then
      dropped t ~reason:Trace.Event.D_queue frame
  end
  else begin
    (* Still count the packet at the qdisc so drop statistics and RED
       averages see the full arrival process. *)
    if Qdisc.enqueue t.qdisc ~now:(Engine.Sim.now t.sim) frame then
      match Qdisc.dequeue t.qdisc ~now:(Engine.Sim.now t.sim) with
      | Some f -> transmit t f
      | None ->
          failwith (t.name ^ ": qdisc accepted a frame but dequeued none")
  end

(* Severing keeps event timing intact — the busy transmitter still
   fires its timer and the frames already on the wire still arrive at
   their times, but every frame is routed through [dropped] (reason
   [D_cut]) instead of the sink, so the invariant checker's
   conservation accounting stays exact.  Queued frames are discarded
   right away. *)
let sever t =
  if not t.severed then begin
    t.severed <- true;
    let rec drain () =
      match Qdisc.dequeue t.qdisc ~now:(Engine.Sim.now t.sim) with
      | Some frame ->
          dropped t ~reason:Trace.Event.D_cut frame;
          drain ()
      | None -> ()
    in
    drain ()
  end

let restore t = t.severed <- false

let stats t = t.st
let qdisc t = t.qdisc
let mangler t = t.mangler
let name t = t.name
let rate_bps t = t.rate_bps
let delay t = t.delay

let utilisation t ~over =
  if over <= 0.0 then 0.0
  else 8.0 *. float_of_int t.st.tx_bytes /. (t.rate_bps *. over)
