(* Frozen record-based reference implementation of [Loss_reconstructor],
   kept as the differential-testing oracle for the flat float record of
   the live module: here the clock is a mixed-record field. *)

type t = {
  lh : Tfrc.Loss_history.t;
  trace : Trace.Sink.t option;
  mutable last_arrival : float;
  mutable seeded : bool;
}

let create ?cost ?trace () =
  {
    lh = Tfrc.Loss_history.create ?cost ();
    trace;
    last_arrival = 0.0;
    seeded = false;
  }

let trace_new_events t ~before =
  let after = Tfrc.Loss_history.loss_events t.lh in
  if after > before && Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Loss_event
         {
           side = Trace.Event.S_sender;
           events = after;
           p = Tfrc.Loss_history.loss_event_rate t.lh;
         })

(* §6.3.1 seeding must happen immediately when the first loss event
   appears — checking only at batch boundaries would make the estimate
   depend on how covers were batched into feedback packets. *)
let maybe_seed t ~rtt ~x_recv ~packet_size =
  if (not t.seeded) && Tfrc.Loss_history.loss_events t.lh >= 1 then begin
    t.seeded <- true;
    let x_target =
      Float.max (float_of_int packet_size /. Float.max rtt 1e-3) x_recv
    in
    let p_seed =
      Tfrc.Equation.loss_rate_for ~s:(Stdlib.max 1 packet_size)
        ~r:(Float.max rtt 1e-3) ~target:x_target
    in
    if p_seed > 0.0 then
      Tfrc.Loss_history.set_first_interval t.lh (1.0 /. p_seed)
  end

type batch = int

let begin_batch t = Tfrc.Loss_history.loss_events t.lh

let push_cover t ~seq ~sent_at ~was_retx ~rtt ~x_recv ~packet_size =
  (* Clamp to keep the virtual clock monotone even when covers from
     reordered feedback interleave. *)
  let arrival = Float.max t.last_arrival (sent_at +. rtt) in
  t.last_arrival <- arrival;
  Tfrc.Loss_history.on_packet t.lh ~seq ~arrival ~rtt ~is_retx:was_retx;
  maybe_seed t ~rtt ~x_recv ~packet_size

let end_batch t before = trace_new_events t ~before

let on_covers t ~covers ~rtt ~x_recv ~packet_size =
  let before = begin_batch t in
  List.iter
    (fun (c : Scoreboard_lists.cover) ->
      push_cover t ~seq:c.cov_seq ~sent_at:c.cov_sent_at
        ~was_retx:c.cov_was_retx ~rtt ~x_recv ~packet_size)
    covers;
  end_batch t before

let on_ce_marks t ~new_marks ~rtt ~x_recv ~packet_size =
  if new_marks > 0 then begin
    let before = Tfrc.Loss_history.loss_events t.lh in
    let seq =
      match Tfrc.Loss_history.max_seq t.lh with
      | Some s -> s
      | None -> Packet.Serial.zero
    in
    for _ = 1 to new_marks do
      Tfrc.Loss_history.on_congestion_mark t.lh ~marks:1 ~seq
        ~arrival:t.last_arrival ~rtt
    done;
    maybe_seed t ~rtt ~x_recv ~packet_size;
    trace_new_events t ~before
  end

(* Handover: the reconstructed history follows the same policy as a
   standard receiver's.  After [`Reset] the §6.3.1 seeding may run
   again on the new path's first loss event. *)
let on_handover t ~policy ~packet_size ~(link : Tfrc.Handover.link_info) =
  match (policy : Tfrc.Handover.policy) with
  | `Keep -> ()
  | `Reset ->
      Tfrc.Loss_history.reseed t.lh 0.0;
      t.seeded <- false
  | `Informed ->
      let p = Tfrc.Handover.informed_p ~s:(Stdlib.max 1 packet_size) link in
      Tfrc.Loss_history.reseed t.lh (if p > 0.0 then 1.0 /. p else 0.0);
      t.seeded <- true

let loss_event_rate t = Tfrc.Loss_history.loss_event_rate t.lh

let loss_events t = Tfrc.Loss_history.loss_events t.lh

let history t = t.lh
