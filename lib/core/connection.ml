module Header = Packet.Header
module Serial = Packet.Serial

type config = {
  agreed : Capabilities.agreed;
  params : Tfrc.Sender.params;
  sack_blocks : int;
  handover : Tfrc.Handover.policy;
}

(* The sender's params are built here, once per config, and every
   connection built from the config shares them: 10k flows opened from
   one profile hold one config record and one params record. *)
let config ?(initial_rtt = 0.5) ?max_rate_bps ?(sack_blocks = 4)
    ?(oscillation_damping = false) ?(handover = `Keep) agreed =
  {
    agreed;
    params =
      {
        Tfrc.Sender.packet_size = Vtp_wire.packet_size;
        initial_rtt;
        min_rate_bps = agreed.Capabilities.target_bps;
        max_rate_bps;
        oscillation_damping;
      };
    sack_blocks;
    handover;
  }

type state =
  | Negotiating
  | Established of Capabilities.agreed
  | Closing  (** [close] called; draining reliability obligations *)
  | Closed
  | Failed of string

(* The receiver half's per-packet floats (rate window, timestamp echo)
   sit in one all-float record, flat in the heap: a mutable float field
   in the mixed [receiver_side] record would box two words per write on
   every data arrival, and a [(tstamp, arrival) option] echo would add
   a tuple per packet. *)
type rx_window = {
  mutable window_start : float;
  mutable x_recv : float;
  mutable last_tstamp : float;  (* sender tstamp of the newest data packet *)
  mutable last_arrival : float;
  mutable last_rtt : float;
}

type receiver_side = {
  mutable std_recv : Tfrc.Receiver.t option;
  (* The receive window on every plane: in-order delivery always, SACK
     reports only where [uses_sack]. *)
  tracker : Sack.Rcv_tracker.t;
  cost : Stats.Cost.t option;
  rx : rx_window;
  mutable window_bytes : int;
  mutable has_last : bool;  (* any data seen yet? (guards the echo fields) *)
  mutable ce_count : int;  (* cumulative CE marks seen (light echo) *)
  mutable sack_timer : Engine.Timer.t option;
}

type sender_side = {
  cc : Tfrc.Sender.t;
  (* The SACK plane: the scoreboard and the reliability plane built on
     it, both or neither. *)
  sack : (Sack.Scoreboard.t * Sack.Reliability.t) option;
  reconstructor : Loss_reconstructor.t option;
  source : Source.t;
  mutable expiry_timer : Engine.Timer.t option;
  mutable plain_seq : Serial.t;  (* sequencing when no SACK plane *)
  mutable known_ce : int;  (* highest CE echo processed so far *)
  (* Loss scratch for the SACK feedback path: newly inferred losses
     are staged here (as raw serial ints) during the scoreboard digest
     and fed to the reliability plane after the [Sack_rcvd] trace
     emission, preserving the Loss_inferred* -> Sack_rcvd ->
     Abandoned* event order without a per-feedback list. *)
  mutable loss_scr : int array;
  mutable loss_n : int;
}

type t = {
  sim : Engine.Sim.t;
  endpoint : Netsim.Topology.endpoint;
  cfg : config;
  (* Always [Some]: the sink itself is inert until a recorder is
     installed, so the per-event cost without tracing is one branch. *)
  trace : Trace.Sink.t option;
  mutable state : state;
  (* [responder_offer] is consulted by the receiver half during the
     handshake; [initiator_offer] is what the SYN carries. *)
  initiator_offer : Capabilities.offer option;
  responder_offer : Capabilities.offer option;
  snd : sender_side;
  rcv : receiver_side;
  mutable feedback_packets : int;
  mutable feedback_bytes : int;
  mutable handshake_packets : int;
  mutable hs_timer : Engine.Timer.t option;  (* SYN retransmission *)
  mutable hs_tries : int;
  mutable close_timer : Engine.Timer.t option;  (* CLOSE retransmission *)
  mutable close_tries : int;
  mutable close_ticks : int;
  (* Per-segment in-order delivery tap (the trunk layer's demultiplex
     point); [None] costs one branch per delivery. *)
  mutable on_deliver : (seq:Serial.t -> unit) option;
}

let uses_sack cfg =
  cfg.agreed.Capabilities.plane = Capabilities.Light
  || cfg.agreed.Capabilities.mode <> Capabilities.R_none

(* ------------------------------------------------------------------ *)
(* Emission helpers *)

let send_forward t segment =
  t.endpoint.Netsim.Topology.to_receiver
    (Vtp_wire.frame_of ~flow_id:t.endpoint.Netsim.Topology.flow_id segment)

let send_reverse t segment =
  t.endpoint.Netsim.Topology.to_sender
    (Vtp_wire.frame_of ~flow_id:t.endpoint.Netsim.Topology.flow_id segment)

(* ------------------------------------------------------------------ *)
(* Sender side *)

let fwd_point_now t =
  match t.snd.sack with
  | Some (sb, rel) ->
      Sack.Reliability.fwd_point rel ~highest_sent:(Sack.Scoreboard.next_seq sb)
  | None ->
      (* No SACK plane: the receiver should never wait for repairs. *)
      t.snd.plain_seq

let emit_data t ~seq ~is_retx =
  let now = Engine.Sim.now t.sim in
  let hdr =
    Header.Data
      {
        seq;
        tstamp = now;
        rtt_estimate = Tfrc.Sender.rtt t.snd.cc;
        is_retransmit = is_retx;
        fwd_point = fwd_point_now t;
      }
  in
  let segment = Packet.Segment.make ~hdr ~payload:Vtp_wire.payload in
  let frame =
    Vtp_wire.frame_of ~flow_id:t.endpoint.Netsim.Topology.flow_id segment
  in
  frame.Netsim.Frame.ect <- t.cfg.agreed.Capabilities.use_ecn;
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Seg_send
         { seq; size = Vtp_wire.packet_size; retx = is_retx });
  t.endpoint.Netsim.Topology.to_receiver frame

let fresh_data t ~now =
  if t.state <> Closing && t.state <> Closed && Source.take t.snd.source
  then begin
    let seq =
      match t.snd.sack with
      | Some (sb, _) ->
          let s = Sack.Scoreboard.next_seq sb in
          Sack.Scoreboard.on_send sb ~seq:s ~now ~size:Vtp_wire.packet_size
            ~is_retx:false;
          s
      | None ->
          let s = t.snd.plain_seq in
          t.snd.plain_seq <- Serial.succ s;
          s
    in
    emit_data t ~seq ~is_retx:false;
    true
  end
  else false

let transmit_opportunity t =
  let now = Engine.Sim.now t.sim in
  match t.snd.sack with
  | None -> fresh_data t ~now
  | Some (sb, rel) -> (
      match Sack.Reliability.next_decision rel ~now with
      | Sack.Reliability.Retransmit seq ->
          Sack.Scoreboard.on_send sb ~seq ~now ~size:Vtp_wire.packet_size
            ~is_retx:true;
          emit_data t ~seq ~is_retx:true;
          true
      | Sack.Reliability.Fresh_data -> fresh_data t ~now)

let push_loss t seq =
  let n = t.snd.loss_n in
  let cap = Array.length t.snd.loss_scr in
  if n >= cap then begin
    let nbuf = Array.make (2 * cap) 0 in
    Array.blit t.snd.loss_scr 0 nbuf 0 cap;
    t.snd.loss_scr <- nbuf
  end;
  t.snd.loss_scr.(n) <- Serial.to_int seq;
  t.snd.loss_n <- n + 1

(* Report the rate-update outcome to the invariant checker, when one is
   installed (the harness's checked mode).  [x_recv] and [p] are the
   bytes/s inputs the sender was just fed. *)
let inspect_sample t ~x_recv ~p =
  match Inspect.hook () with
  | None -> ()
  | Some report ->
      let cc = t.snd.cc in
      let prm = Tfrc.Sender.params cc in
      let s = prm.Tfrc.Sender.packet_size in
      let x_calc_bps =
        if p > 0.0 then Tfrc.Equation.rate_bps ~s ~r:(Tfrc.Sender.rtt cc) ~p
        else infinity
      in
      report
        {
          Inspect.at = Engine.Sim.now t.sim;
          flow_id = t.endpoint.Netsim.Topology.flow_id;
          x_bps = Tfrc.Sender.rate_bps cc;
          x_calc_bps;
          x_recv_bps = 8.0 *. x_recv;
          p;
          g_bps = t.cfg.agreed.Capabilities.target_bps;
          cap_bps = prm.Tfrc.Sender.max_rate_bps;
          mbi_floor_bps = 8.0 *. float_of_int s /. Tfrc.Sender.t_mbi;
          slow_start = Tfrc.Sender.in_slow_start cc;
        }

let sender_on_sack t (sf : Header.sack_feedback) =
  match t.snd.sack with
  | None -> ()
  | Some (sb, rel) ->
      let now = Engine.Sim.now t.sim in
      let rtt = Tfrc.Sender.rtt t.snd.cc in
      (* Streaming digest: covers flow straight from the scoreboard into
         the light plane's loss-history replay (ascending acks then
         ascending sacks = merged ascending order) without per-cover
         list materialisation — the trunk/LFN bulk-advance fast path.
         Losses stay a list; they are rare and the reliability plane
         takes them in one call. *)
      let batch =
        Option.map Loss_reconstructor.begin_batch t.snd.reconstructor
      in
      let on_cover ~seq ~sent_at ~was_retx =
        match t.snd.reconstructor with
        | Some lr ->
            Loss_reconstructor.push_cover lr ~seq ~sent_at ~was_retx ~rtt
              ~x_recv:sf.sack_x_recv
        | None -> ()
      in
      t.snd.loss_n <- 0;
      (* RFC 8985 §6.2's reordering window: a repair counts as lost
         again once something sent a quarter of the minimum RTT after
         it has arrived. *)
      let summary =
        Sack.Scoreboard.iter_feedback sb ~cum_ack:sf.cum_ack ~blocks:sf.blocks
          ~reo_wnd:(Tfrc.Sender.min_rtt t.snd.cc /. 4.0)
          ~on_ack:on_cover ~on_sack:on_cover
          ~on_lost:(fun seq -> push_loss t seq)
      in
      if Trace.Sink.on t.trace then
        Trace.Sink.emit t.trace
          (Trace.Event.Sack_rcvd
             {
               cum_ack = sf.cum_ack;
               blocks = List.length sf.blocks;
               acked = summary.Sack.Scoreboard.fb_acked;
               sacked = summary.Sack.Scoreboard.fb_sacked;
               lost = summary.Sack.Scoreboard.fb_lost;
             });
      (* Feed the staged losses (ascending) after the Sack_rcvd emit. *)
      if t.snd.loss_n > 0 then begin
        for k = 0 to t.snd.loss_n - 1 do
          Sack.Reliability.on_loss rel ~now
            (Serial.of_int t.snd.loss_scr.(k))
        done;
        Tfrc.Sender.notify_data t.snd.cc
      end;
      t.snd.loss_n <- 0;
      (match (t.snd.reconstructor, batch) with
      | Some lr, Some b ->
          Loss_reconstructor.end_batch lr b;
          if sf.sack_ce_count > t.snd.known_ce then begin
            Loss_reconstructor.on_ce_marks lr
              ~new_marks:(sf.sack_ce_count - t.snd.known_ce)
              ~rtt ~x_recv:sf.sack_x_recv;
            t.snd.known_ce <- sf.sack_ce_count
          end;
          let p = Loss_reconstructor.loss_event_rate lr in
          Tfrc.Sender.on_feedback t.snd.cc ~tstamp_echo:sf.sack_tstamp_echo
            ~t_delay:sf.sack_t_delay ~x_recv:sf.sack_x_recv ~p;
          inspect_sample t ~x_recv:sf.sack_x_recv ~p
      | _ -> ())

let sender_on_std_feedback t (f : Header.feedback) =
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Fb_rcvd { x_recv = f.x_recv; p = f.p });
  Tfrc.Sender.on_feedback t.snd.cc ~tstamp_echo:f.tstamp_echo
    ~t_delay:f.t_delay ~x_recv:f.x_recv ~p:f.p;
  inspect_sample t ~x_recv:f.x_recv ~p:f.p

let arm_expiry_timer t =
  match t.snd.sack with
  | Some (sb, rel) ->
      let timer = ref None in
      let fire () =
        let now = Engine.Sim.now t.sim in
        let rtt = Tfrc.Sender.rtt t.snd.cc in
        let timeout = Float.max (4.0 *. rtt) 0.2 in
        let expired = Sack.Scoreboard.mark_expired sb ~now ~timeout in
        if expired <> [] then begin
          Sack.Reliability.on_losses rel ~now expired;
          Tfrc.Sender.notify_data t.snd.cc
        end;
        match !timer with
        | Some tm -> Engine.Timer.start tm ~after:(Float.max rtt 0.05)
        | None -> ()
      in
      let tm = Engine.Timer.create t.sim ~on_expire:fire in
      timer := Some tm;
      t.snd.expiry_timer <- Some tm;
      Engine.Timer.start tm
        ~after:(Float.max t.cfg.params.Tfrc.Sender.initial_rtt 0.05)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Receiver side *)

let update_x_recv t ~now =
  let r = t.rcv in
  let elapsed = now -. r.rx.window_start in
  (* Re-estimate only over windows of at least half an RTT so that
     per-packet SACK cadences don't produce a wildly noisy x_recv. *)
  if
    elapsed >= 0.5 *. Float.max r.rx.last_rtt 1e-3 && r.window_bytes > 0
  then begin
    r.rx.x_recv <- float_of_int r.window_bytes /. elapsed;
    r.window_bytes <- 0;
    r.rx.window_start <- now
  end

let emit_sack t =
  let r = t.rcv in
  if r.has_last then begin
    let tr = r.tracker in
    let tstamp = r.rx.last_tstamp and arrival = r.rx.last_arrival in
    let now = Engine.Sim.now t.sim in
    update_x_recv t ~now;
    let blocks = Sack.Rcv_tracker.sack_blocks tr in
    let hdr =
      Header.Sack_feedback
        {
          cum_ack = Sack.Rcv_tracker.cum_ack tr;
          blocks;
          sack_tstamp_echo = tstamp;
          sack_t_delay = now -. arrival;
          sack_x_recv = r.rx.x_recv;
          sack_ce_count = r.ce_count;
        }
    in
    let segment = Packet.Segment.make ~hdr ~payload:0 in
    t.feedback_packets <- t.feedback_packets + 1;
    t.feedback_bytes <- t.feedback_bytes + Packet.Segment.size segment;
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Sack_sent
           {
             cum_ack = Sack.Rcv_tracker.cum_ack tr;
             blocks = List.length blocks;
             x_recv = r.rx.x_recv;
           });
    send_reverse t segment
  end

let arm_sack_timer t =
  let fire () =
    if t.rcv.has_last then emit_sack t;
    match t.rcv.sack_timer with
    | Some tm ->
        Engine.Timer.start tm ~after:(Float.max t.rcv.rx.last_rtt 1e-3)
    | None -> ()
  in
  let tm = Engine.Timer.create t.sim ~on_expire:fire in
  t.rcv.sack_timer <- Some tm

let[@vtp.hot] receiver_on_data t (d : Header.data) ~ce ~wire_size =
  let now = Engine.Sim.now t.sim in
  let r = t.rcv in
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Seg_recv
         { seq = d.seq; size = wire_size; ce; retx = d.is_retransmit });
  if d.rtt_estimate > 0.0 then r.rx.last_rtt <- d.rtt_estimate;
  let first = not r.has_last in
  r.has_last <- true;
  r.rx.last_tstamp <- d.tstamp;
  r.rx.last_arrival <- now;
  r.window_bytes <- r.window_bytes + wire_size;
  if ce then r.ce_count <- r.ce_count + 1;
  (* Standard plane: the heavy RFC 3448 receiver. *)
  (match r.std_recv with
  | Some sr -> Tfrc.Receiver.on_data sr ~ce d ~size:wire_size
  | None -> ());
  (* The receive window: O(1) tracking and in-order delivery; note
     whether this arrival opened a new hole (a fresh loss indication
     worth an expedited report). *)
  (match r.cost with
  | Some c -> Stats.Cost.charge c "recv.reassembly"
  | None -> ());
  let tr = r.tracker in
  let new_hole = Serial.( > ) d.seq (Sack.Rcv_tracker.highest_expected tr) in
  Sack.Rcv_tracker.on_data tr ~seq:d.seq;
  Sack.Rcv_tracker.apply_fwd_point tr d.fwd_point;
  (* Feedback emission policy. *)
  match t.cfg.agreed.Capabilities.plane with
  | Capabilities.Standard ->
      (* Reliability ack-clock alongside RFC 3448 reports. *)
      if uses_sack t.cfg then emit_sack t
  | Capabilities.Light ->
      (* One report per RTT, expedited on a new hole, the first packet
         and a CE mark. *)
      if new_hole || first || ce then begin
        emit_sack t;
        match r.sack_timer with
        | Some tm ->
            Engine.Timer.start tm
              ~after:(Float.max r.rx.last_rtt 1e-3)
        | None -> ()
      end
      else begin
        match r.sack_timer with
        | Some tm when not (Engine.Timer.is_armed tm) ->
            Engine.Timer.start tm
              ~after:(Float.max r.rx.last_rtt 1e-3)
        | Some _ | None -> ()
      end

(* ------------------------------------------------------------------ *)
(* Handshake *)

let send_handshake t ~forward kind payload =
  let hdr = Header.Handshake { kind; payload } in
  let segment = Packet.Segment.make ~hdr ~payload:0 in
  t.handshake_packets <- t.handshake_packets + 1;
  if forward then send_forward t segment else send_reverse t segment

let max_handshake_tries = 6

let stop_hs_timer t =
  match t.hs_timer with Some tm -> Engine.Timer.stop tm | None -> ()

(* Retransmit the SYN with exponential backoff until the SYN-ACK lands
   (the responder answers every SYN statelessly, so duplicate SYNs and a
   lost final ACK are harmless). *)
let send_syn_with_retry t offer =
  let backoff tries =
    Float.min 8.0
      (t.cfg.params.Tfrc.Sender.initial_rtt *. (2.0 ** float_of_int tries))
  in
  let timer =
    match t.hs_timer with
    | Some tm -> tm
    | None ->
        let tm =
          Engine.Timer.create t.sim ~on_expire:(fun () ->
              if t.state = Negotiating then begin
                if t.hs_tries >= max_handshake_tries then begin
                  t.state <- Failed "handshake timeout";
                  if Trace.Sink.on t.trace then
                    Trace.Sink.emit t.trace
                      (Trace.Event.Nego_failed { reason = "handshake timeout" })
                end
                else begin
                  t.hs_tries <- t.hs_tries + 1;
                  send_handshake t ~forward:true Header.Syn
                    (Capabilities.encode_offer offer);
                  match t.hs_timer with
                  | Some tm -> Engine.Timer.start tm ~after:(backoff t.hs_tries)
                  | None -> ()
                end
              end)
        in
        t.hs_timer <- Some tm;
        tm
  in
  t.hs_tries <- 1;
  send_handshake t ~forward:true Header.Syn (Capabilities.encode_offer offer);
  Engine.Timer.start timer ~after:(backoff 1)

let establish t agreed =
  stop_hs_timer t;
  t.state <- Established agreed;
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace
      (Trace.Event.Negotiated
         {
           plane =
             Format.asprintf "%a" Capabilities.pp_plane
               agreed.Capabilities.plane;
           mode =
             Format.asprintf "%a" Capabilities.pp_mode
               agreed.Capabilities.mode;
           g_bps = agreed.Capabilities.target_bps;
         });
  arm_expiry_timer t;
  Tfrc.Sender.start t.snd.cc

let handle_handshake_at_receiver t (h : Header.handshake) =
  match h.kind with
  | Header.Close ->
      (* The sender has no more data and no pending repairs: confirm and
         quiesce the receiving side. *)
      (match t.rcv.sack_timer with
      | Some tm -> Engine.Timer.stop tm
      | None -> ());
      send_handshake t ~forward:false Header.Close_ack ""
  | Header.Close_ack -> ()
  | Header.Syn -> (
      match
        ( Capabilities.decode_offer h.payload,
          t.responder_offer )
      with
      | Ok initiator, Some responder -> (
          match Capabilities.negotiate ~initiator ~responder with
          | Ok agreed ->
              send_handshake t ~forward:false Header.Syn_ack
                (Capabilities.encode_agreed agreed)
          | Error e ->
              send_handshake t ~forward:false Header.Syn_ack ("error:" ^ e))
      | Error e, _ ->
          send_handshake t ~forward:false Header.Syn_ack ("error:" ^ e)
      | Ok _, None ->
          send_handshake t ~forward:false Header.Syn_ack
            "error:responder has no offer")
  | Header.Ack_hs | Header.Syn_ack -> ()

let finish_close t =
  if t.state <> Closed then begin
    t.state <- Closed;
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace (Trace.Event.Conn_state { state = "closed" });
    (match t.close_timer with
    | Some tm -> Engine.Timer.stop tm
    | None -> ());
    (match t.snd.expiry_timer with
    | Some tm -> Engine.Timer.stop tm
    | None -> ());
    Tfrc.Sender.stop t.snd.cc
  end

let handle_handshake_at_sender t (h : Header.handshake) =
  match h.kind with
  | Header.Close_ack -> if t.state = Closing then finish_close t
  | Header.Close -> ()
  | Header.Syn_ack -> (
      if t.state = Negotiating then
        match Capabilities.decode_agreed h.payload with
        | Ok agreed ->
            send_handshake t ~forward:true Header.Ack_hs "";
            establish t agreed
        | Error _ ->
            let reason =
              if String.length h.payload >= 6
                 && String.sub h.payload 0 6 = "error:"
              then String.sub h.payload 6 (String.length h.payload - 6)
              else "malformed SYN-ACK"
            in
            stop_hs_timer t;
            t.state <- Failed reason;
            if Trace.Sink.on t.trace then
              Trace.Sink.emit t.trace (Trace.Event.Nego_failed { reason }))
  | Header.Syn | Header.Ack_hs -> ()

(* ------------------------------------------------------------------ *)
(* Graceful close *)

let drained t =
  match t.snd.sack with
  | None -> true
  | Some (sb, _) -> Sack.Scoreboard.outstanding sb = 0

let max_close_tries = 8

let max_close_ticks = 200  (* hard bound: never linger in Closing forever *)

(* The close driver: poll until the reliability plane drains (actively
   advancing abandonment, since no data emission does it for us any
   more), then send CLOSE with retries; close unilaterally once either
   budget runs out. *)
let close_tick t =
  if t.state = Closing then begin
    (match t.snd.sack with
    | Some (sb, rel) ->
        ignore
          (Sack.Reliability.fwd_point rel
             ~highest_sent:(Sack.Scoreboard.next_seq sb))
    | None -> ());
    t.close_ticks <- t.close_ticks + 1;
    if t.close_ticks > max_close_ticks then finish_close t
    else begin
      if drained t then begin
        if t.close_tries >= max_close_tries then finish_close t
        else begin
          t.close_tries <- t.close_tries + 1;
          send_handshake t ~forward:true Header.Close ""
        end
      end;
      if t.state = Closing then
        match t.close_timer with
        | Some tm ->
            Engine.Timer.start tm
              ~after:(Float.max (2.0 *. Tfrc.Sender.rtt t.snd.cc) 0.05)
        | None -> ()
    end
  end

let close t =
  match t.state with
  | Closed | Closing -> ()
  | Negotiating | Failed _ ->
      stop_hs_timer t;
      finish_close t
  | Established _ ->
      t.state <- Closing;
      if Trace.Sink.on t.trace then
        Trace.Sink.emit t.trace (Trace.Event.Conn_state { state = "closing" });
      (* New data stops immediately; retransmissions keep flowing until
         the scoreboard drains (full reliability finishes its job). *)
      (match t.close_timer with
      | Some _ -> ()
      | None ->
          t.close_timer <-
            Some (Engine.Timer.create t.sim ~on_expire:(fun () -> close_tick t)));
      close_tick t

(* ------------------------------------------------------------------ *)
(* Construction *)

let build ~sim ~endpoint ?cost_sender ?cost_receiver ?source ~start_at
    ~initial_state ~initiator_offer ~responder_offer cfg =
  let agreed = cfg.agreed in
  let uses_sack_plane = uses_sack cfg in
  let policy = Capabilities.to_policy agreed in
  let trace =
    Trace.Sink.of_sim sim ~flow:endpoint.Netsim.Topology.flow_id
  in
  let sack =
    if uses_sack_plane then begin
      let sb = Sack.Scoreboard.create ?cost:cost_sender ~trace () in
      Some
        ( sb,
          Sack.Reliability.create ?cost:cost_sender ~trace policy
            ~scoreboard:sb () )
    end
    else None
  in
  let reconstructor =
    if agreed.Capabilities.plane = Capabilities.Light then
      Some (Loss_reconstructor.create ?cost:cost_sender ~trace ())
    else None
  in
  let source = match source with Some s -> s | None -> Source.greedy () in
  let t_ref = ref None in
  let deliver seq =
    match !t_ref with
    | Some { on_deliver = Some f; _ } -> f ~seq
    | Some { on_deliver = None; _ } | None -> ()
  in
  let cc =
    Tfrc.Sender.create ~sim ?cost:cost_sender ~trace cfg.params
      ~on_transmit:(fun () ->
        match !t_ref with
        | Some t -> transmit_opportunity t
        | None -> false)
      ()
  in
  let t =
    {
      sim;
      endpoint;
      cfg;
      trace = Some trace;
      state = initial_state;
      initiator_offer;
      responder_offer;
      snd =
        {
          cc;
          sack;
          reconstructor;
          source;
          expiry_timer = None;
          plain_seq = Serial.zero;
          known_ce = 0;
          loss_scr = Array.make 16 0;
          loss_n = 0;
        };
      rcv =
        {
          std_recv = None;
          tracker =
            Sack.Rcv_tracker.create ~max_blocks:cfg.sack_blocks
              ?cost:(if uses_sack_plane then cost_receiver else None)
              ~deliver ();
          cost = cost_receiver;
          rx =
            {
              window_start = Engine.Sim.now sim;
              x_recv = 0.0;
              last_tstamp = 0.0;
              last_arrival = 0.0;
              last_rtt = cfg.params.Tfrc.Sender.initial_rtt;
            };
          window_bytes = 0;
          has_last = false;
          ce_count = 0;
          sack_timer = None;
        };
      feedback_packets = 0;
      feedback_bytes = 0;
      handshake_packets = 0;
      hs_timer = None;
      hs_tries = 0;
      close_timer = None;
      close_tries = 0;
      close_ticks = 0;
      on_deliver = None;
    }
  in
  t_ref := Some t;
  Source.set_notify source (fun () -> Tfrc.Sender.notify_data cc);
  if agreed.Capabilities.plane = Capabilities.Standard then begin
    let send_feedback (f : Header.feedback) =
      let segment = Packet.Segment.make ~hdr:(Header.Feedback f) ~payload:0 in
      t.feedback_packets <- t.feedback_packets + 1;
      t.feedback_bytes <- t.feedback_bytes + Packet.Segment.size segment;
      send_reverse t segment
    in
    t.rcv.std_recv <-
      Some
        (Tfrc.Receiver.create ~sim ?cost:cost_receiver ~trace ~send_feedback ())
  end;
  if agreed.Capabilities.plane = Capabilities.Light then arm_sack_timer t;
  endpoint.Netsim.Topology.on_receiver_rx (fun frame ->
      match frame.Netsim.Frame.body with
      | Vtp_wire.Vtp seg -> (
          match seg.Packet.Segment.hdr with
          | Header.Data d ->
              receiver_on_data t d ~ce:frame.Netsim.Frame.ce
                ~wire_size:(Packet.Segment.size seg)
          | Header.Handshake h -> handle_handshake_at_receiver t h
          | Header.Feedback _ | Header.Sack_feedback _ -> ())
      | _ -> ());
  endpoint.Netsim.Topology.on_sender_rx (fun frame ->
      match frame.Netsim.Frame.body with
      | Vtp_wire.Vtp seg -> (
          match seg.Packet.Segment.hdr with
          | Header.Feedback f -> sender_on_std_feedback t f
          | Header.Sack_feedback sf -> sender_on_sack t sf
          | Header.Handshake h -> handle_handshake_at_sender t h
          | Header.Data _ -> ())
      | _ -> ());
  Engine.Sim.post_at sim start_at (fun () ->
      match t.state with
      | Established _ ->
          arm_expiry_timer t;
          Tfrc.Sender.start t.snd.cc
      | Negotiating -> (
          match t.initiator_offer with
          | Some offer -> send_syn_with_retry t offer
          | None -> t.state <- Failed "no initiator offer")
      | Closing | Closed | Failed _ -> ());
  t

let create ~sim ~endpoint ?cost_sender ?cost_receiver ?source
    ?(start_at = 0.0) cfg =
  build ~sim ~endpoint ?cost_sender ?cost_receiver ?source ~start_at
    ~initial_state:(Established cfg.agreed) ~initiator_offer:None
    ~responder_offer:None cfg

let create_negotiated ~sim ~endpoint ?cost_sender ?cost_receiver ?source
    ?(start_at = 0.0) ?initial_rtt ?handover ~initiator ~responder
    () =
  match Capabilities.negotiate ~initiator ~responder with
  | Ok agreed ->
      let cfg = config ?initial_rtt ?handover agreed in
      build ~sim ~endpoint ?cost_sender ?cost_receiver ?source ~start_at
        ~initial_state:Negotiating ~initiator_offer:(Some initiator)
        ~responder_offer:(Some responder) cfg
  | Error reason ->
      (* Build an inert connection that still runs the wire handshake so
         the failure is observable end to end. *)
      let dummy =
        {
          Capabilities.plane = Capabilities.Standard;
          mode = Capabilities.R_none;
          target_bps = 0.0;
          max_retx = 0;
          deadline = 0.0;
          use_ecn = false;
        }
      in
      let cfg = config ?initial_rtt ?handover dummy in
      let t =
        build ~sim ~endpoint ?cost_sender ?cost_receiver ?source ~start_at
          ~initial_state:Negotiating ~initiator_offer:(Some initiator)
          ~responder_offer:(Some responder) cfg
      in
      ignore reason;
      t

(* ------------------------------------------------------------------ *)
(* Observation *)

(* A migration notification fans the configured handover policy out to
   every piece of TFRC state the connection owns: the sender's rate /
   RTT machinery, the light plane's reconstructed loss history, and the
   standard plane's receiver-side history.  With [`Keep] (the default)
   this is a no-op end to end. *)
let notify_migration t ~link =
  let policy = t.cfg.handover in
  Tfrc.Sender.apply_handover t.snd.cc ~policy ~link;
  (match t.snd.reconstructor with
  | Some rc ->
      Loss_reconstructor.on_handover rc ~policy ~link
  | None -> ());
  match t.rcv.std_recv with
  | Some r -> Tfrc.Receiver.on_handover r ~policy ~link
  | None -> ()

let state t = t.state

let set_on_deliver t f =
  t.on_deliver <-
    Some
      (match t.on_deliver with
      | None -> f
      | Some g ->
          fun ~seq ->
            g ~seq;
            f ~seq)

let goodput t =
  let s = Stats.Series.create () in
  Stats.Series.record s ~time:(Engine.Sim.now t.sim)
    ~bytes:(Sack.Rcv_tracker.delivered t.rcv.tracker * Vtp_wire.payload);
  s

let current_rate_bps t = Tfrc.Sender.rate_bps t.snd.cc

let sender_loss_estimate t =
  match t.snd.reconstructor with
  | Some lr -> Loss_reconstructor.loss_event_rate lr
  | None -> (
      match t.rcv.std_recv with
      | Some r -> Tfrc.Receiver.loss_event_rate r
      | None -> 0.0)

let receiver_loss_estimate t =
  Option.map Tfrc.Receiver.loss_event_rate t.rcv.std_recv

let data_sent t =
  match t.snd.sack with
  | Some (sb, _) -> Sack.Scoreboard.stats_sent sb
  | None -> Tfrc.Sender.packets_sent t.snd.cc

let retransmissions t =
  match t.snd.sack with
  | Some (sb, _) -> Sack.Scoreboard.stats_retx sb
  | None -> 0

let expiry_losses t =
  match t.snd.sack with
  | Some (sb, _) -> Sack.Scoreboard.stats_expired sb
  | None -> 0

let duplicates_received t = Sack.Rcv_tracker.duplicates t.rcv.tracker

let abandoned t =
  match t.snd.sack with
  | Some (_, rel) -> Sack.Reliability.abandoned rel
  | None -> 0

let delivered t = Sack.Rcv_tracker.delivered t.rcv.tracker

let skipped t = Sack.Rcv_tracker.skipped t.rcv.tracker

let feedback_packets t = t.feedback_packets

let feedback_bytes t = t.feedback_bytes

let handshake_packets t = t.handshake_packets
