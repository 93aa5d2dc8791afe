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
  flight : Frame.t Engine.Ring.t;  (** launched frames in propagation *)
  mutable tx_done : unit -> unit;  (** reused serialization-done thunk *)
  mutable arrival : unit -> unit;  (** reused propagation-done thunk *)
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

(* Propagation complete: frames launched onto the wire arrive in FIFO
   order (the delay is constant), so the arrival thunk just pops the
   flight ring.  The mangler stage, when present, sits between the wire
   and the sink (it may hold, clone or damage the frame). *)
let arrive t =
  let frame = Engine.Ring.pop t.flight in
  if t.severed then dropped t ~reason:Trace.Event.D_cut frame
  else
    match t.mangler with
    | Some m -> Mangler.push m ~emit:(fun f -> deliver t f) frame
    | None -> deliver t frame

(* Serialization and propagation reuse one preallocated thunk each
   ([tx_done] / [arrival]); the frame travels via [tx_frame] and the
   flight ring, so a forwarded frame costs zero closure allocations. *)
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
  else begin
    Engine.Ring.push t.flight frame;
    Engine.Sim.post_after t.sim t.delay t.arrival
  end;
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
  let t =
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
      flight = Engine.Ring.create ~dummy:Frame.dummy;
      tx_done = Engine.Event.noop;
      arrival = Engine.Event.noop;
      st = { tx_frames = 0; tx_bytes = 0; lost_frames = 0; delivered = 0 };
    }
  in
  t.tx_done <- (fun () -> complete t);
  t.arrival <- (fun () -> arrive t);
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

(* Severing keeps event timing intact — the busy transmitter and the
   frames already in propagation still fire their timers, but every
   frame is routed through [dropped] (reason [D_cut]) instead of the
   sink, so the invariant checker's conservation accounting stays
   exact.  Queued frames are discarded right away. *)
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
