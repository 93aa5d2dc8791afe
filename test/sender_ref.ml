(* Frozen record-based reference implementation of [Sender], kept as the
   differential-testing oracle for the flat float records of the live
   module: here the floats are mixed-record fields.  Do not optimise
   this file; its value is being the obviously-correct, field-per-record
   twin. *)

open Tfrc

type params = {
  packet_size : int;
  initial_rtt : float;
  min_rate_bps : float;
  max_rate_bps : float option;
  t_mbi : float;
  oscillation_damping : bool;
}

let default_params =
  {
    packet_size = 1500;
    initial_rtt = 0.5;
    min_rate_bps = 0.0;
    max_rate_bps = None;
    t_mbi = 64.0;
    oscillation_damping = false;
  }

type t = {
  sim : Engine.Sim.t;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  p : params;
  on_transmit : unit -> bool;
  rtt : Rtt.t;
  mutable x : float;  (* allowed rate, bytes/s *)
  mutable slow_start : bool;
  mutable running : bool;
  mutable idle : bool;
  mutable tick : Engine.Sim.handle option;
  mutable next_at : float;  (* deadline of the pending tick *)
  mutable nofeedback : Engine.Timer.t option;
  mutable sent : int;
  mutable feedbacks : int;
  mutable nfb_expiries : int;
  mutable last_p : float;
  (* §4.5 oscillation damping state *)
  mutable r_sqmean : float;  (* EWMA of sqrt(R_sample); 0 = no sample *)
  mutable r_sample_last : float;
}

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let trace_rate t ~x_calc ~x_recv ~p =
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Rate_change
         {
           x_bps = 8.0 *. t.x;
           x_calc_bps = 8.0 *. x_calc;
           x_recv_bps = 8.0 *. x_recv;
           p;
           slow_start = t.slow_start;
         })

let s_float t = float_of_int t.p.packet_size

(* Clamp X to [floor, ceiling]: the gTFRC guarantee g below, the
   application/interface rate above, and never below one packet per
   maximum backoff interval. *)
let clamp t x =
  let x = Float.max x (s_float t /. t.p.t_mbi) in
  let x = Float.max x (t.p.min_rate_bps /. 8.0) in
  match t.p.max_rate_bps with
  | Some cap -> Float.min x (cap /. 8.0)
  | None -> x

let rate_bps t = 8.0 *. t.x

(* §4.5: the instantaneous rate is damped by sqrt(R_sample)/R_sqmean; a
   rising RTT (queue building) slows the sender below X before the next
   equation update, and vice versa. *)
let instantaneous_rate t =
  if t.p.oscillation_damping && t.r_sqmean > 0.0 && t.r_sample_last > 0.0 then
    let x_inst = t.x *. t.r_sqmean /. sqrt t.r_sample_last in
    match t.p.max_rate_bps with
    | Some cap -> Float.min x_inst (cap /. 8.0)
    | None -> x_inst
  else t.x

let instantaneous_rate_bps t = 8.0 *. instantaneous_rate t

let inter_packet_interval t = s_float t /. instantaneous_rate t

let rec schedule_tick t ~after =
  (match t.tick with Some h -> Engine.Sim.cancel t.sim h | None -> ());
  t.next_at <- Engine.Sim.now t.sim +. after;
  t.tick <- Some (Engine.Sim.schedule_after t.sim after (fun () -> fire t))

and fire t =
  t.tick <- None;
  if t.running then begin
    if t.on_transmit () then begin
      t.sent <- t.sent + 1;
      schedule_tick t ~after:(inter_packet_interval t)
    end
    else t.idle <- true
  end

let nofeedback_timer t =
  match t.nofeedback with
  | Some tm -> tm
  | None ->
      let tm =
        Engine.Timer.create t.sim ~on_expire:(fun () ->
            (* RFC 3448 §4.4: no report for a while — halve the rate.
               The gTFRC floor still applies via [clamp]: the AF
               reservation remains paid for while the connection lives. *)
            t.nfb_expiries <- t.nfb_expiries + 1;
            charge t "send.nofeedback";
            t.x <- clamp t (t.x /. 2.0);
            trace_rate t ~x_calc:0.0 ~x_recv:0.0 ~p:t.last_p;
            let tm2 = Option.get t.nofeedback in
            Engine.Timer.start tm2
              ~after:
                (Float.max (4.0 *. Rtt.smoothed t.rtt)
                   (2.0 *. s_float t /. t.x)))
      in
      t.nofeedback <- Some tm;
      tm

let restart_nofeedback t =
  let tm = nofeedback_timer t in
  Engine.Timer.start tm
    ~after:(Float.max (4.0 *. Rtt.smoothed t.rtt) (2.0 *. s_float t /. t.x))

let create ~sim ?cost ?trace p ~on_transmit () =
  assert (p.packet_size > 0 && p.initial_rtt > 0.0 && p.t_mbi > 0.0);
  let rtt = Rtt.create ~initial:p.initial_rtt () in
  let t =
    {
      sim;
      cost;
      trace;
      p;
      on_transmit;
      rtt;
      x = 0.0;
      slow_start = true;
      running = false;
      idle = false;
      tick = None;
      next_at = 0.0;
      nofeedback = None;
      sent = 0;
      feedbacks = 0;
      nfb_expiries = 0;
      last_p = 0.0;
      r_sqmean = 0.0;
      r_sample_last = 0.0;
    }
  in
  (* Initial rate: two segments per (seeded) RTT — within RFC 3448's
     allowance, conservative for long paths. *)
  t.x <- clamp t (2.0 *. s_float t /. p.initial_rtt);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.idle <- false;
    restart_nofeedback t;
    schedule_tick t ~after:0.0
  end

let stop t =
  t.running <- false;
  (match t.tick with Some h -> Engine.Sim.cancel t.sim h | None -> ());
  t.tick <- None;
  match t.nofeedback with Some tm -> Engine.Timer.stop tm | None -> ()

let notify_data t =
  if t.running && t.idle then begin
    t.idle <- false;
    schedule_tick t ~after:0.0
  end

let on_feedback t ~tstamp_echo ~t_delay ~x_recv ~p =
  charge t "send.std.feedback_proc";
  t.feedbacks <- t.feedbacks + 1;
  t.last_p <- p;
  let now = Engine.Sim.now t.sim in
  let sample = now -. tstamp_echo -. t_delay in
  if sample > 0.0 then begin
    Rtt.sample t.rtt sample;
    t.r_sample_last <- sample;
    t.r_sqmean <-
      (if Float.equal t.r_sqmean 0.0 then sqrt sample
       else (0.9 *. t.r_sqmean) +. (0.1 *. sqrt sample));
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Rtt_sample { sample; srtt = Rtt.smoothed t.rtt })
  end;
  let r = Rtt.smoothed t.rtt in
  let x_calc =
    if p > 0.0 then begin
      t.slow_start <- false;
      let x_calc = Equation.rate ~s:t.p.packet_size ~r ~p in
      t.x <- clamp t (Float.min x_calc (2.0 *. x_recv));
      x_calc
    end
    else begin
      (* Slow start: double once per feedback, bounded by twice the rate
         the receiver actually saw. *)
      let doubled = 2.0 *. t.x in
      let bound = if x_recv > 0.0 then 2.0 *. x_recv else doubled in
      t.x <- clamp t (Float.min doubled bound);
      Float.infinity
    end
  in
  trace_rate t ~x_calc ~x_recv ~p;
  (* A rate increase takes effect immediately rather than waiting out a
     long previously-scheduled gap — but never push the pending
     opportunity further away. *)
  if t.running && not t.idle then begin
    let gap = inter_packet_interval t in
    match t.tick with
    | Some _ when now +. gap < t.next_at -> schedule_tick t ~after:gap
    | Some _ | None -> ()
  end;
  restart_nofeedback t

(* Migration notification.  [`Keep] is deliberately a no-op — the whole
   point of the policy comparison is that keeping a WiFi-sized X on a
   3G link overshoots until the feedback loop catches up. *)
let apply_handover t ~policy ~(link : Handover.link_info) =
  (match (policy : Handover.policy) with
  | `Keep -> ()
  | `Reset ->
      Rtt.reseed t.rtt link.Handover.rtt;
      t.slow_start <- true;
      t.last_p <- 0.0;
      t.r_sqmean <- 0.0;
      t.r_sample_last <- 0.0;
      t.x <- clamp t (Handover.reset_rate ~s:(s_float t) ~rtt:link.Handover.rtt);
      trace_rate t ~x_calc:0.0 ~x_recv:0.0 ~p:0.0
  | `Informed ->
      Rtt.reseed t.rtt link.Handover.rtt;
      t.slow_start <- false;
      t.r_sqmean <- 0.0;
      t.r_sample_last <- 0.0;
      let target = Handover.informed_rate link in
      let p = Handover.informed_p ~s:t.p.packet_size link in
      t.last_p <- p;
      t.x <- clamp t target;
      trace_rate t ~x_calc:target ~x_recv:0.0 ~p);
  match (policy : Handover.policy) with
  | `Keep -> ()
  | `Reset | `Informed ->
      (* Take a rate increase immediately (cf. [on_feedback]); a
         decrease naturally stretches the next gap. *)
      if t.running && not t.idle then begin
        let gap = inter_packet_interval t in
        let now = Engine.Sim.now t.sim in
        match t.tick with
        | Some _ when now +. gap < t.next_at -> schedule_tick t ~after:gap
        | Some _ | None -> ()
      end;
      restart_nofeedback t

let rtt t = Rtt.smoothed t.rtt
let has_rtt_sample t = Rtt.has_sample t.rtt
let in_slow_start t = t.slow_start
let packets_sent t = t.sent
let feedbacks_processed t = t.feedbacks
let nofeedback_expiries t = t.nfb_expiries
let params t = t.p
