(* The rate machine's floats live in one all-float record, flat in the
   heap, so rate/clock updates never allocate: a mutable float field in
   a mixed record boxes two words on every write, which on the tick path
   is garbage proportional to packets sent.  The counters and flags
   are plain mutable fields; test/sender_ref.ml is the mixed-record
   oracle. *)

type params = {
  packet_size : int;
  initial_rtt : float;
  min_rate_bps : float;
  max_rate_bps : float option;
  oscillation_damping : bool;
}

let default_params =
  {
    packet_size = 1500;
    initial_rtt = 0.5;
    min_rate_bps = 0.0;
    max_rate_bps = None;
    oscillation_damping = false;
  }

(* RFC 3448 §4.3: the maximum backoff interval, in seconds. *)
let t_mbi = 64.0

type state = {
  mutable x : float;  (* allowed rate, bytes/s *)
  mutable last_p : float;
  mutable r_sqmean : float;  (* §4.5 EWMA of sqrt(R_sample); 0 = no sample *)
  mutable r_sample_last : float;
}

type t = {
  sim : Engine.Sim.t;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  p : params;
  on_transmit : unit -> bool;
  rtt : Rtt.t;
  st : state;
  mutable sent : int;
  mutable feedbacks : int;
  mutable nfb_expiries : int;
  mutable slow_start : bool;
  mutable running : bool;
  mutable idle : bool;
  mutable tick : Engine.Timer.t option;  (* set in [create]: needs self *)
  mutable nofeedback : Engine.Timer.t option;
}

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let trace_rate t ~x_calc ~x_recv ~p =
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Rate_change
         {
           x_bps = 8.0 *. t.st.x;
           x_calc_bps = 8.0 *. x_calc;
           x_recv_bps = 8.0 *. x_recv;
           p;
           slow_start = t.slow_start;
         })

let s_float t = float_of_int t.p.packet_size

(* Clamp X to [floor, ceiling]: the gTFRC guarantee g below, the
   application/interface rate above, and never below one packet per
   maximum backoff interval. *)
let clamp t v =
  let v = Float.max v (s_float t /. t_mbi) in
  let v = Float.max v (t.p.min_rate_bps /. 8.0) in
  match t.p.max_rate_bps with
  | Some cap -> Float.min v (cap /. 8.0)
  | None -> v

let rate_bps t = 8.0 *. t.st.x

(* §4.5: the instantaneous rate is damped by sqrt(R_sample)/R_sqmean; a
   rising RTT (queue building) slows the sender below X before the next
   equation update, and vice versa.  A falling RTT may raise it above X
   but never above the ceiling. *)
let[@vtp.hot] instantaneous_rate t =
  let r_sqmean = t.st.r_sqmean and r_sample_last = t.st.r_sample_last in
  if t.p.oscillation_damping && r_sqmean > 0.0 && r_sample_last > 0.0 then
    let x_inst = t.st.x *. r_sqmean /. sqrt r_sample_last in
    match t.p.max_rate_bps with
    | Some cap -> Float.min x_inst (cap /. 8.0)
    | None -> x_inst
  else t.st.x

let instantaneous_rate_bps t = 8.0 *. instantaneous_rate t

let[@vtp.hot] inter_packet_interval t = s_float t /. instantaneous_rate t

let[@inline] tick_timer t = Option.get t.tick

let[@vtp.hot] on_tick t =
  if t.running then begin
    if t.on_transmit () then begin
      t.sent <- t.sent + 1;
      Engine.Timer.start (tick_timer t) ~after:(inter_packet_interval t)
    end
    else t.idle <- true
  end

(* A rate increase takes effect immediately rather than waiting out a
   long previously-scheduled gap — but never push the pending
   opportunity further away. *)
let pull_in_tick t ~now =
  if t.running && not t.idle then begin
    let gap = inter_packet_interval t in
    let tick = tick_timer t in
    if Engine.Timer.is_armed tick && now +. gap < Engine.Timer.deadline tick
    then Engine.Timer.start tick ~after:gap
  end

(* (Re-)arm the nofeedback timer at max(4R, 2s/X) (RFC 3448 §4.4),
   creating it on first use. *)
let rec restart_nofeedback t =
  let tm =
    match t.nofeedback with
    | Some tm -> tm
    | None ->
        let tm =
          Engine.Timer.create t.sim ~on_expire:(fun () ->
              (* No report for a while — halve the rate and re-arm.  The
                 gTFRC floor still applies via [clamp]: the AF
                 reservation remains paid for while the connection
                 lives. *)
              t.nfb_expiries <- t.nfb_expiries + 1;
              charge t "send.nofeedback";
              t.st.x <- clamp t (t.st.x /. 2.0);
              trace_rate t ~x_calc:0.0 ~x_recv:0.0 ~p:t.st.last_p;
              restart_nofeedback t)
        in
        t.nofeedback <- Some tm;
        tm
  in
  Engine.Timer.start tm
    ~after:(Float.max (4.0 *. Rtt.smoothed t.rtt) (2.0 *. s_float t /. t.st.x))

let create ~sim ?cost ?trace p ~on_transmit () =
  assert (p.packet_size > 0 && p.initial_rtt > 0.0);
  let rtt = Rtt.create ~initial:p.initial_rtt () in
  let t =
    {
      sim;
      cost;
      trace;
      p;
      on_transmit;
      rtt;
      st =
        {
          x = 0.0;
          last_p = 0.0;
          r_sqmean = 0.0;
          r_sample_last = 0.0;
        };
      sent = 0;
      feedbacks = 0;
      nfb_expiries = 0;
      slow_start = true;
      running = false;
      idle = false;
      tick = None;
      nofeedback = None;
    }
  in
  t.tick <- Some (Engine.Timer.create sim ~on_expire:(fun () -> on_tick t));
  (* Initial rate: two segments per (seeded) RTT — within RFC 3448's
     allowance, conservative for long paths. *)
  t.st.x <- clamp t (2.0 *. s_float t /. p.initial_rtt);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.idle <- false;
    restart_nofeedback t;
    Engine.Timer.start (tick_timer t) ~after:0.0
  end

let stop t =
  t.running <- false;
  Engine.Timer.stop (tick_timer t);
  match t.nofeedback with Some tm -> Engine.Timer.stop tm | None -> ()

let notify_data t =
  if t.running && t.idle then begin
    t.idle <- false;
    Engine.Timer.start (tick_timer t) ~after:0.0
  end

let[@vtp.hot] on_feedback t ~tstamp_echo ~t_delay ~x_recv ~p =
  charge t "send.std.feedback_proc";
  t.feedbacks <- t.feedbacks + 1;
  t.st.last_p <- p;
  let now = Engine.Sim.now t.sim in
  let sample = now -. tstamp_echo -. t_delay in
  if sample > 0.0 then begin
    Rtt.sample t.rtt sample;
    t.st.r_sample_last <- sample;
    let r_sqmean = t.st.r_sqmean in
    t.st.r_sqmean <-
      (if Float.equal r_sqmean 0.0 then sqrt sample
       else (0.9 *. r_sqmean) +. (0.1 *. sqrt sample));
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Rtt_sample { sample; srtt = Rtt.smoothed t.rtt })
  end;
  let r = Rtt.smoothed t.rtt in
  let x_calc =
    if p > 0.0 then begin
      t.slow_start <- false;
      let x_calc = Equation.rate ~s:t.p.packet_size ~r ~p in
      t.st.x <- clamp t (Float.min x_calc (2.0 *. x_recv));
      x_calc
    end
    else begin
      (* Slow start: double once per feedback, bounded by twice the rate
         the receiver actually saw. *)
      let doubled = 2.0 *. t.st.x in
      let bound = if x_recv > 0.0 then 2.0 *. x_recv else doubled in
      t.st.x <- clamp t (Float.min doubled bound);
      Float.infinity
    end
  in
  trace_rate t ~x_calc ~x_recv ~p;
  pull_in_tick t ~now;
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
      t.st.last_p <- 0.0;
      t.st.r_sqmean <- 0.0;
      t.st.r_sample_last <- 0.0;
      t.st.x <-
        clamp t (Handover.reset_rate ~s:(s_float t) ~rtt:link.Handover.rtt);
      trace_rate t ~x_calc:0.0 ~x_recv:0.0 ~p:0.0
  | `Informed ->
      Rtt.reseed t.rtt link.Handover.rtt;
      t.slow_start <- false;
      t.st.r_sqmean <- 0.0;
      t.st.r_sample_last <- 0.0;
      let target = Handover.informed_rate link in
      let p = Handover.informed_p ~s:t.p.packet_size link in
      t.st.last_p <- p;
      t.st.x <- clamp t target;
      trace_rate t ~x_calc:target ~x_recv:0.0 ~p);
  match (policy : Handover.policy) with
  | `Keep -> ()
  | `Reset | `Informed ->
      (* Take a rate increase immediately; a decrease naturally
         stretches the next gap. *)
      pull_in_tick t ~now:(Engine.Sim.now t.sim);
      restart_nofeedback t

let rtt t = Rtt.smoothed t.rtt
let min_rtt t = Rtt.min_rtt t.rtt
let has_rtt_sample t = Rtt.has_sample t.rtt
let in_slow_start t = t.slow_start
let packets_sent t = t.sent
let feedbacks_processed t = t.feedbacks
let nofeedback_expiries t = t.nfb_expiries
let params t = t.p
