(* Slab-packed implementation; the record-based oracle is
   test/receiver_ref.ml.  The per-packet bookkeeping (rate window, timestamp echo,
   RTT adoption) writes only into the slab slot's flat arrays, so
   receiving a data segment allocates nothing here — the old record
   boxed a float per mutable-float write plus a [Some (tstamp,
   arrival)] tuple per packet. *)

let lay = Engine.Slab.layout ~floats:5 ~ints:6

(* float cells *)
let f_last_tstamp = 0 (* sender tstamp of the newest data packet *)
let f_last_arrival = 1 (* its arrival time *)
let f_last_rtt = 2 (* latest sender RTT estimate seen *)
let f_window_start = 3
let f_x_recv = 4

(* int cells *)
let i_has_last = 0 (* any data seen yet? (guards the echo fields) *)
let i_window_bytes = 1 (* received since last feedback *)
let i_reported_events = 2
let i_packets = 3
let i_feedbacks = 4
let i_pkt_size = 5 (* last data size, for the p seed *)

type t = {
  sim : Engine.Sim.t;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  send_feedback : Packet.Header.feedback -> unit;
  lh : Loss_history.t;
  ar : Engine.Slab.t;
  slot : int;
  mutable timer : Engine.Timer.t option;  (* created lazily: needs self *)
}

let[@inline] fget t j = Engine.Slab.fget t.ar t.slot j
let[@inline] fset t j v = Engine.Slab.fset t.ar t.slot j v
let[@inline] iget t j = Engine.Slab.iget t.ar t.slot j
let[@inline] iset t j v = Engine.Slab.iset t.ar t.slot j v

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let emit_feedback t =
  if iget t i_has_last <> 0 then begin
    let tstamp = fget t f_last_tstamp and arrival = fget t f_last_arrival in
    let now = Engine.Sim.now t.sim in
    let elapsed = now -. fget t f_window_start in
    if elapsed > 0.0 && iget t i_window_bytes > 0 then
      fset t f_x_recv (float_of_int (iget t i_window_bytes) /. elapsed);
    iset t i_window_bytes 0;
    fset t f_window_start now;
    let p = Loss_history.loss_event_rate t.lh in
    charge t "recv.std.feedback";
    iset t i_feedbacks (iget t i_feedbacks + 1);
    iset t i_reported_events (Loss_history.loss_events t.lh);
    let recv_seq =
      match Loss_history.max_seq t.lh with
      | Some s -> s
      | None -> Packet.Serial.zero
    in
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Fb_sent { x_recv = fget t f_x_recv; p });
    t.send_feedback
      {
        Packet.Header.tstamp_echo = tstamp;
        t_delay = now -. arrival;
        x_recv = fget t f_x_recv;
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
              if iget t i_window_bytes > 0 then emit_feedback t;
              arm_timer t)
        in
        t.timer <- Some tm;
        tm
  in
  Engine.Timer.start timer ~after:(Float.max 1e-4 (fget t f_last_rtt))

let create ~sim ?cost ?trace ?ndup ?discount ~send_feedback () =
  let ar = Engine.Sim.arena sim lay in
  let t =
    {
      sim;
      cost;
      trace;
      send_feedback;
      lh = Loss_history.create ?ndup ?discount ?cost ();
      ar;
      slot = Engine.Slab.alloc ar;
      timer = None;
    }
  in
  fset t f_last_rtt 0.1;
  fset t f_window_start (Engine.Sim.now sim);
  iset t i_pkt_size 1500;
  t

let[@vtp.hot] on_data t ?(ce = false) (d : Packet.Header.data) ~size =
  let now = Engine.Sim.now t.sim in
  charge t "recv.std.packet";
  iset t i_packets (iget t i_packets + 1);
  iset t i_pkt_size (Stdlib.max 1 size);
  if d.rtt_estimate > 0.0 then fset t f_last_rtt d.rtt_estimate;
  let last_rtt = fget t f_last_rtt in
  let first = iget t i_has_last = 0 in
  iset t i_has_last 1;
  fset t f_last_tstamp d.tstamp;
  fset t f_last_arrival now;
  iset t i_window_bytes (iget t i_window_bytes + size);
  let events_before = Loss_history.loss_events t.lh in
  Loss_history.on_packet t.lh ~seq:d.seq ~arrival:now ~rtt:last_rtt
    ~is_retx:d.is_retransmit;
  if ce then
    Loss_history.on_congestion_mark t.lh ~seq:d.seq ~arrival:now ~rtt:last_rtt;
  let events_after = Loss_history.loss_events t.lh in
  if events_before = 0 && events_after = 1 then begin
    (* First loss event: synthesise the preceding interval from the
       measured receive rate (RFC 3448 §6.3.1). *)
    let elapsed = now -. fget t f_window_start in
    let x_meas =
      if elapsed > 0.0 && iget t i_window_bytes > 0 then
        float_of_int (iget t i_window_bytes) /. elapsed
      else fget t f_x_recv
    in
    let x_target =
      Float.max (float_of_int (iget t i_pkt_size) /. last_rtt) x_meas
    in
    let p_seed =
      Equation.loss_rate_for ~s:(iget t i_pkt_size) ~r:last_rtt
        ~target:x_target
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
  if events_after > iget t i_reported_events then begin
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
      fset t f_last_rtt link.Handover.rtt;
      Loss_history.reseed t.lh 0.0
  | `Informed ->
      fset t f_last_rtt link.Handover.rtt;
      let p = Handover.informed_p ~s:(iget t i_pkt_size) link in
      Loss_history.reseed t.lh (if p > 0.0 then 1.0 /. p else 0.0)

let x_recv t = fget t f_x_recv
let loss_event_rate t = Loss_history.loss_event_rate t.lh
let loss_events t = Loss_history.loss_events t.lh
let packets_received t = iget t i_packets
let feedbacks_sent t = iget t i_feedbacks
let history t = t.lh
