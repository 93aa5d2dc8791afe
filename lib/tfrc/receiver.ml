(* The per-packet bookkeeping (rate window, timestamp echo, RTT
   adoption) writes its floats in place, into one all-float record that
   is flat in the heap — a mixed record boxes a float per mutable-float
   write, and an [(tstamp, arrival) option] echo would add a tuple per
   packet.  test/receiver_ref.ml is the mixed-record oracle. *)

type state = {
  mutable last_tstamp : float;  (* sender tstamp of the newest data packet *)
  mutable last_arrival : float;  (* its arrival time *)
  mutable last_rtt : float;  (* latest sender RTT estimate seen *)
  mutable window_start : float;
  mutable x_recv : float;
}

type t = {
  sim : Engine.Sim.t;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  send_feedback : Packet.Header.feedback -> unit;
  lh : Loss_history.t;
  st : state;
  mutable has_last : bool;  (* any data seen yet? (guards the echo fields) *)
  mutable window_bytes : int;  (* received since last feedback *)
  mutable reported_events : int;
  mutable packets : int;
  mutable feedbacks : int;
  mutable pkt_size : int;  (* last data size, for the p seed *)
  mutable timer : Engine.Timer.t option;  (* created lazily: needs self *)
}

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let emit_feedback t =
  if t.has_last then begin
    let tstamp = t.st.last_tstamp and arrival = t.st.last_arrival in
    let now = Engine.Sim.now t.sim in
    let elapsed = now -. t.st.window_start in
    if elapsed > 0.0 && t.window_bytes > 0 then
      t.st.x_recv <- float_of_int t.window_bytes /. elapsed;
    t.window_bytes <- 0;
    t.st.window_start <- now;
    let p = Loss_history.loss_event_rate t.lh in
    charge t "recv.std.feedback";
    t.feedbacks <- t.feedbacks + 1;
    t.reported_events <- Loss_history.loss_events t.lh;
    let recv_seq =
      match Loss_history.max_seq t.lh with
      | Some s -> s
      | None -> Packet.Serial.zero
    in
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Fb_sent { x_recv = t.st.x_recv; p });
    t.send_feedback
      {
        Packet.Header.tstamp_echo = tstamp;
        t_delay = now -. arrival;
        x_recv = t.st.x_recv;
        p;
        recv_seq;
      }
  end

let rec arm_timer t =
  let timer =
    match t.timer with
    | Some tm -> tm
    | None ->
        let tm =
          Engine.Timer.create t.sim ~on_expire:(fun () ->
              (* Report only if data arrived this interval (RFC 3448
                 §6.2); otherwise stay quiet and let the sender's
                 nofeedback timer do its job. *)
              if t.window_bytes > 0 then emit_feedback t;
              arm_timer t)
        in
        t.timer <- Some tm;
        tm
  in
  Engine.Timer.start timer ~after:(Float.max 1e-4 t.st.last_rtt)

let create ~sim ?cost ?trace ~send_feedback () =
  {
    sim;
    cost;
    trace;
    send_feedback;
    lh = Loss_history.create ?cost ();
    st =
      {
        last_tstamp = 0.0;
        last_arrival = 0.0;
        last_rtt = 0.1;
        window_start = Engine.Sim.now sim;
        x_recv = 0.0;
      };
    has_last = false;
    window_bytes = 0;
    reported_events = 0;
    packets = 0;
    feedbacks = 0;
    pkt_size = 1500;
    timer = None;
  }

let[@vtp.hot] on_data t ~ce (d : Packet.Header.data) ~size =
  let now = Engine.Sim.now t.sim in
  charge t "recv.std.packet";
  t.packets <- t.packets + 1;
  t.pkt_size <- Stdlib.max 1 size;
  if d.rtt_estimate > 0.0 then t.st.last_rtt <- d.rtt_estimate;
  (* Boxed once here: a float read from the flat record is otherwise
     boxed afresh at each history call it is passed to. *)
  let last_rtt = Sys.opaque_identity t.st.last_rtt in
  let first = not t.has_last in
  t.has_last <- true;
  t.st.last_tstamp <- d.tstamp;
  t.st.last_arrival <- now;
  t.window_bytes <- t.window_bytes + size;
  let events_before = Loss_history.loss_events t.lh in
  Loss_history.on_packet t.lh ~seq:d.seq ~arrival:now ~rtt:last_rtt
    ~is_retx:d.is_retransmit;
  if ce then
    Loss_history.on_congestion_mark t.lh ~marks:1 ~seq:d.seq ~arrival:now
      ~rtt:last_rtt;
  let events_after = Loss_history.loss_events t.lh in
  if events_before = 0 && events_after = 1 then begin
    (* First loss event: synthesise the preceding interval from the
       measured receive rate (RFC 3448 §6.3.1). *)
    let elapsed = now -. t.st.window_start in
    let x_meas =
      if elapsed > 0.0 && t.window_bytes > 0 then
        float_of_int t.window_bytes /. elapsed
      else t.st.x_recv
    in
    let x_target = Float.max (float_of_int t.pkt_size /. last_rtt) x_meas in
    let p_seed =
      Equation.loss_rate_for ~s:t.pkt_size ~r:last_rtt ~target:x_target
    in
    if p_seed > 0.0 then Loss_history.set_first_interval t.lh (1.0 /. p_seed)
  end;
  if events_after > events_before && Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Loss_event
         {
           side = Trace.Event.S_receiver;
           events = events_after;
           p = Loss_history.loss_event_rate t.lh;
         });
  if events_after > t.reported_events then begin
    (* New loss event: expedited report, then resume the RTT cadence. *)
    emit_feedback t;
    arm_timer t
  end
  else if first then arm_timer t

(* Migration notification: the standard plane's loss history lives
   here, so the policy's history component applies receiver-side. *)
let on_handover t ~policy ~(link : Handover.link_info) =
  match (policy : Handover.policy) with
  | `Keep -> ()
  | `Reset ->
      t.st.last_rtt <- link.Handover.rtt;
      Loss_history.reseed t.lh 0.0
  | `Informed ->
      t.st.last_rtt <- link.Handover.rtt;
      let p = Handover.informed_p ~s:t.pkt_size link in
      Loss_history.reseed t.lh (if p > 0.0 then 1.0 /. p else 0.0)

let x_recv t = t.st.x_recv
let loss_event_rate t = Loss_history.loss_event_rate t.lh
let loss_events t = Loss_history.loss_events t.lh
let packets_received t = t.packets
let feedbacks_sent t = t.feedbacks
