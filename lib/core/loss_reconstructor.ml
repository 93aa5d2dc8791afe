(* The virtual-arrival clock is the one hot mutable float here — it
   advances once per replayed cover, and a mutable float field in the
   mixed record would box two words per push — so it sits alone in an
   all-float record, flat in the heap.  test/loss_reconstructor_ref.ml
   is the mixed-record oracle. *)

type clock = { mutable last_arrival : float }

type t = {
  lh : Tfrc.Loss_history.t;
  trace : Trace.Sink.t option;
  clock : clock;
  mutable seeded : bool;
}

let create ?cost ?trace () =
  {
    lh = Tfrc.Loss_history.create ?cost ();
    trace;
    clock = { last_arrival = 0.0 };
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
let maybe_seed t ~rtt ~x_recv =
  if (not t.seeded) && Tfrc.Loss_history.loss_events t.lh >= 1 then begin
    t.seeded <- true;
    let x_target =
      Float.max (float_of_int Vtp_wire.packet_size /. Float.max rtt 1e-3) x_recv
    in
    let p_seed =
      Tfrc.Equation.loss_rate_for ~s:Vtp_wire.packet_size
        ~r:(Float.max rtt 1e-3) ~target:x_target
    in
    if p_seed > 0.0 then
      Tfrc.Loss_history.set_first_interval t.lh (1.0 /. p_seed)
  end

type batch = int

let begin_batch t = Tfrc.Loss_history.loss_events t.lh

let[@vtp.hot] push_cover t ~seq ~sent_at ~was_retx ~rtt ~x_recv =
  (* Clamp to keep the virtual clock monotone even when covers from
     reordered feedback interleave. *)
  let arrival = Float.max t.clock.last_arrival (sent_at +. rtt) in
  t.clock.last_arrival <- arrival;
  Tfrc.Loss_history.on_packet t.lh ~seq ~arrival ~rtt ~is_retx:was_retx;
  maybe_seed t ~rtt ~x_recv

let end_batch t before = trace_new_events t ~before

let on_ce_marks t ~new_marks ~rtt ~x_recv =
  if new_marks > 0 then begin
    let before = Tfrc.Loss_history.loss_events t.lh in
    let seq =
      match Tfrc.Loss_history.max_seq t.lh with
      | Some s -> s
      | None -> Packet.Serial.zero
    in
    Tfrc.Loss_history.on_congestion_mark t.lh ~marks:new_marks ~seq
      ~arrival:t.clock.last_arrival ~rtt;
    maybe_seed t ~rtt ~x_recv;
    trace_new_events t ~before
  end

(* Handover: the reconstructed history follows the same policy as a
   standard receiver's.  After [`Reset] the §6.3.1 seeding may run
   again on the new path's first loss event. *)
let on_handover t ~policy ~(link : Tfrc.Handover.link_info) =
  match (policy : Tfrc.Handover.policy) with
  | `Keep -> ()
  | `Reset ->
      Tfrc.Loss_history.reseed t.lh 0.0;
      t.seeded <- false
  | `Informed ->
      let p = Tfrc.Handover.informed_p ~s:Vtp_wire.packet_size link in
      Tfrc.Loss_history.reseed t.lh (if p > 0.0 then 1.0 /. p else 0.0);
      t.seeded <- true

let loss_event_rate t = Tfrc.Loss_history.loss_event_rate t.lh

let loss_events t = Tfrc.Loss_history.loss_events t.lh

let history t = t.lh
