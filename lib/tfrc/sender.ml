(* Slab-packed implementation; the record-based oracle is
   test/sender_ref.ml.

   All mutable numeric state lives in one {!Engine.Slab} slot so that
   10k senders share two flat arrays and — critically — rate/clock
   updates never allocate: a mutable float field in the old mixed
   record boxed two words on every write, which on the tick path meant
   garbage proportional to packets sent.  The send tick keeps the
   pending event inline (event + generation, preallocated fire thunk)
   instead of an option-wrapped handle, mirroring {!Engine.Timer}. *)

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

(* Params records are immutable and overwhelmingly shared across a
   scenario's flows: intern them so 10k flows hold one copy. *)
let params_pool : params Engine.Intern.pool = Engine.Intern.pool ()

let lay = Engine.Slab.layout ~floats:5 ~ints:4

(* float cells *)
let f_x = 0 (* allowed rate, bytes/s *)
let f_next_at = 1 (* deadline of the pending tick *)
let f_last_p = 2
let f_r_sqmean = 3 (* §4.5 EWMA of sqrt(R_sample); 0 = no sample *)
let f_r_sample_last = 4

(* int cells *)
let i_sent = 0
let i_feedbacks = 1
let i_nfb_expiries = 2
let i_flags = 3

let fl_slow_start = 1
let fl_running = 2
let fl_idle = 4

type t = {
  sim : Engine.Sim.t;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  p : params;
  on_transmit : unit -> bool;
  rtt : Rtt.t;
  ar : Engine.Slab.t;
  slot : int;
  mutable fire : unit -> unit;  (* built once in [create] *)
  mutable tick_ev : Engine.Event.t;  (* meaningful only when armed *)
  mutable tick_gen : int;
  mutable tick_armed : bool;
  mutable nofeedback : Engine.Timer.t option;
}

let[@inline] x t = Engine.Slab.fget t.ar t.slot f_x
let[@inline] set_x t v = Engine.Slab.fset t.ar t.slot f_x v
let[@inline] fget t j = Engine.Slab.fget t.ar t.slot j
let[@inline] fset t j v = Engine.Slab.fset t.ar t.slot j v
let[@inline] iget t j = Engine.Slab.iget t.ar t.slot j
let[@inline] iset t j v = Engine.Slab.iset t.ar t.slot j v
let[@inline] flag t m = iget t i_flags land m <> 0

let[@inline] set_flag t m b =
  let fl = iget t i_flags in
  iset t i_flags (if b then fl lor m else fl land lnot m)

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let trace_rate t ~x_calc ~x_recv ~p =
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Rate_change
         {
           x_bps = 8.0 *. x t;
           x_calc_bps = 8.0 *. x_calc;
           x_recv_bps = 8.0 *. x_recv;
           p;
           slow_start = flag t fl_slow_start;
         })

let s_float t = float_of_int t.p.packet_size

(* Clamp X to [floor, ceiling]: the gTFRC guarantee g below, the
   application/interface rate above, and never below one packet per
   maximum backoff interval. *)
let clamp t v =
  let v = Float.max v (s_float t /. t.p.t_mbi) in
  let v = Float.max v (t.p.min_rate_bps /. 8.0) in
  match t.p.max_rate_bps with
  | Some cap -> Float.min v (cap /. 8.0)
  | None -> v

let rate_bps t = 8.0 *. x t

(* §4.5: the instantaneous rate is damped by sqrt(R_sample)/R_sqmean; a
   rising RTT (queue building) slows the sender below X before the next
   equation update, and vice versa. *)
let[@vtp.hot] instantaneous_rate t =
  let r_sqmean = fget t f_r_sqmean and r_sample_last = fget t f_r_sample_last in
  if t.p.oscillation_damping && r_sqmean > 0.0 && r_sample_last > 0.0 then
    x t *. r_sqmean /. sqrt r_sample_last
  else x t

let instantaneous_rate_bps t = 8.0 *. instantaneous_rate t

let[@vtp.hot] inter_packet_interval t = s_float t /. instantaneous_rate t

let[@vtp.hot] schedule_tick t ~after =
  if t.tick_armed then Engine.Sim.cancel_ev t.sim t.tick_ev ~gen:t.tick_gen;
  fset t f_next_at (Engine.Sim.now t.sim +. after);
  let ev = Engine.Sim.schedule_after_ev t.sim after t.fire in
  t.tick_ev <- ev;
  t.tick_gen <- ev.Engine.Event.gen;
  t.tick_armed <- true

let[@vtp.hot] fire t =
  t.tick_armed <- false;
  if flag t fl_running then begin
    if t.on_transmit () then begin
      iset t i_sent (iget t i_sent + 1);
      schedule_tick t ~after:(inter_packet_interval t)
    end
    else set_flag t fl_idle true
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
            iset t i_nfb_expiries (iget t i_nfb_expiries + 1);
            charge t "send.nofeedback";
            set_x t (clamp t (x t /. 2.0));
            trace_rate t ~x_calc:0.0 ~x_recv:0.0 ~p:(fget t f_last_p);
            let tm2 = Option.get t.nofeedback in
            Engine.Timer.start tm2
              ~after:
                (Float.max (4.0 *. Rtt.smoothed t.rtt)
                   (2.0 *. s_float t /. x t)))
      in
      t.nofeedback <- Some tm;
      tm

let restart_nofeedback t =
  let tm = nofeedback_timer t in
  Engine.Timer.start tm
    ~after:(Float.max (4.0 *. Rtt.smoothed t.rtt) (2.0 *. s_float t /. x t))

let create ~sim ?cost ?trace p ~on_transmit () =
  assert (p.packet_size > 0 && p.initial_rtt > 0.0 && p.t_mbi > 0.0);
  let p = Engine.Intern.share params_pool p in
  let rtt = Rtt.create ~initial:p.initial_rtt () in
  let ar = Engine.Sim.arena sim lay in
  let t =
    {
      sim;
      cost;
      trace;
      p;
      on_transmit;
      rtt;
      ar;
      slot = Engine.Slab.alloc ar;
      fire = Engine.Event.noop;
      tick_ev = Engine.Event.make_dummy ();
      tick_gen = 0;
      tick_armed = false;
      nofeedback = None;
    }
  in
  t.fire <- (fun () -> fire t);
  set_flag t fl_slow_start true;
  (* Initial rate: two segments per (seeded) RTT — within RFC 3448's
     allowance, conservative for long paths. *)
  set_x t (clamp t (2.0 *. s_float t /. p.initial_rtt));
  t

let start t =
  if not (flag t fl_running) then begin
    set_flag t fl_running true;
    set_flag t fl_idle false;
    restart_nofeedback t;
    schedule_tick t ~after:0.0
  end

let stop t =
  set_flag t fl_running false;
  if t.tick_armed then begin
    Engine.Sim.cancel_ev t.sim t.tick_ev ~gen:t.tick_gen;
    t.tick_armed <- false
  end;
  match t.nofeedback with Some tm -> Engine.Timer.stop tm | None -> ()

let notify_data t =
  if flag t fl_running && flag t fl_idle then begin
    set_flag t fl_idle false;
    schedule_tick t ~after:0.0
  end

let[@vtp.hot] on_feedback t ~tstamp_echo ~t_delay ~x_recv ~p =
  charge t "send.std.feedback_proc";
  iset t i_feedbacks (iget t i_feedbacks + 1);
  fset t f_last_p p;
  let now = Engine.Sim.now t.sim in
  let sample = now -. tstamp_echo -. t_delay in
  if sample > 0.0 then begin
    Rtt.sample t.rtt sample;
    fset t f_r_sample_last sample;
    let r_sqmean = fget t f_r_sqmean in
    fset t f_r_sqmean
      (if Float.equal r_sqmean 0.0 then sqrt sample
       else (0.9 *. r_sqmean) +. (0.1 *. sqrt sample));
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Rtt_sample { sample; srtt = Rtt.smoothed t.rtt })
  end;
  let r = Rtt.smoothed t.rtt in
  let x_calc =
    if p > 0.0 then begin
      set_flag t fl_slow_start false;
      let x_calc = Equation.rate ~s:t.p.packet_size ~r ~p () in
      set_x t (clamp t (Float.min x_calc (2.0 *. x_recv)));
      x_calc
    end
    else begin
      (* Slow start: double once per feedback, bounded by twice the rate
         the receiver actually saw. *)
      let doubled = 2.0 *. x t in
      let bound = if x_recv > 0.0 then 2.0 *. x_recv else doubled in
      set_x t (clamp t (Float.min doubled bound));
      Float.infinity
    end
  in
  trace_rate t ~x_calc ~x_recv ~p;
  (* A rate increase takes effect immediately rather than waiting out a
     long previously-scheduled gap — but never push the pending
     opportunity further away. *)
  if flag t fl_running && not (flag t fl_idle) then begin
    let gap = inter_packet_interval t in
    if t.tick_armed && now +. gap < fget t f_next_at then
      schedule_tick t ~after:gap
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
      set_flag t fl_slow_start true;
      fset t f_last_p 0.0;
      fset t f_r_sqmean 0.0;
      fset t f_r_sample_last 0.0;
      set_x t (clamp t (Handover.reset_rate ~s:(s_float t) ~rtt:link.Handover.rtt));
      trace_rate t ~x_calc:0.0 ~x_recv:0.0 ~p:0.0
  | `Informed ->
      Rtt.reseed t.rtt link.Handover.rtt;
      set_flag t fl_slow_start false;
      fset t f_r_sqmean 0.0;
      fset t f_r_sample_last 0.0;
      let target = Handover.informed_rate link in
      let p = Handover.informed_p ~s:t.p.packet_size link in
      fset t f_last_p p;
      set_x t (clamp t target);
      trace_rate t ~x_calc:target ~x_recv:0.0 ~p);
  match (policy : Handover.policy) with
  | `Keep -> ()
  | `Reset | `Informed ->
      (* Take a rate increase immediately (cf. [on_feedback]); a
         decrease naturally stretches the next gap. *)
      if flag t fl_running && not (flag t fl_idle) then begin
        let gap = inter_packet_interval t in
        let now = Engine.Sim.now t.sim in
        if t.tick_armed && now +. gap < fget t f_next_at then
          schedule_tick t ~after:gap
      end;
      restart_nofeedback t

let rtt t = Rtt.smoothed t.rtt
let min_rtt t = Rtt.min_rtt t.rtt
let has_rtt_sample t = Rtt.has_sample t.rtt
let in_slow_start t = flag t fl_slow_start
let packets_sent t = iget t i_sent
let feedbacks_processed t = iget t i_feedbacks
let nofeedback_expiries t = iget t i_nfb_expiries
let params t = t.p
