module Serial = Packet.Serial

let packet_size = 1460
let initial_window = 2.0
let initial_ssthresh = 64.0
let min_rto = 0.2
let max_rto = 60.0

(* Congestion-control numerics in one all-float record: flat in the
   heap, so the per-ack cwnd/RTT updates write in place instead of
   boxing a float each (the fields used to be mutable floats in the
   mixed sender record).  [srtt] uses NaN for "no sample yet". *)
type cc = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt : float;  (* NaN = no sample *)
  mutable rttvar : float;
  mutable rto : float;
}

type t = {
  sim : Engine.Sim.t;
  transmit : Tcp_wire.seg -> unit;
  (* Per-sequence "retransmitted" flags for the in-flight window
     [snd_una, snd_nxt), kept in a power-of-two ring indexed by the
     sequence number — the hashtable version allocated a bucket per
     send and a removal walk per ack.  A slot is cleared when a fresh
     send claims its sequence number; growth keeps the window span
     strictly below capacity so live slots never collide. *)
  mutable was_retx : bool array;
  mutable mask : int;
  mutable running : bool;
  mutable snd_una : Serial.t;
  mutable snd_nxt : Serial.t;
  cc : cc;
  mutable dupacks : int;
  mutable recover : Serial.t;  (* NewReno recovery point *)
  mutable in_recovery : bool;
  mutable backoff : int;
  rto_timer : Engine.Timer.t option ref;
  mutable sent : int;
  mutable retx : int;
  mutable timeouts : int;
}

let flight t = Stdlib.max 0 (Serial.diff t.snd_nxt t.snd_una)

let grow_ring t =
  let cap = 2 * Array.length t.was_retx in
  let ring = Array.make cap false in
  let mask = cap - 1 in
  Serial.iter_range
    (fun s ->
      let i = Serial.to_int s in
      ring.(i land mask) <- t.was_retx.(i land t.mask))
    t.snd_una t.snd_nxt;
  t.was_retx <- ring;
  t.mask <- mask

let[@inline] slot t seq = Serial.to_int seq land t.mask

let rto_value t =
  Float.min max_rto (t.cc.rto *. float_of_int (1 lsl t.backoff))

let arm_rto t =
  match !(t.rto_timer) with
  | Some timer -> Engine.Timer.start timer ~after:(rto_value t)
  | None -> ()

let disarm_rto t =
  match !(t.rto_timer) with
  | Some timer -> Engine.Timer.stop timer
  | None -> ()

let[@vtp.hot] send_segment t ~seq ~is_retx =
  let now = Engine.Sim.now t.sim in
  if is_retx then begin
    t.retx <- t.retx + 1;
    t.was_retx.(slot t seq) <- true
  end
  else begin
    (* Fresh sends advance the window head: claim (and clear) the
       sequence number's ring slot. *)
    if flight t >= Array.length t.was_retx then grow_ring t;
    t.was_retx.(slot t seq) <- false;
    t.sent <- t.sent + 1
  end;
  t.transmit { Tcp_wire.seq; tstamp = now; is_retx };
  if not (Engine.Timer.is_armed (Option.get !(t.rto_timer))) then arm_rto t

(* Send as much new data as the window allows (the application is
   greedy). *)
let fill_window t =
  if t.running then begin
    let allowance () = int_of_float t.cc.cwnd - flight t in
    while allowance () > 0 do
      let seq = t.snd_nxt in
      t.snd_nxt <- Serial.succ t.snd_nxt;
      send_segment t ~seq ~is_retx:false
    done
  end

let sample_rtt t ~tstamp_echo ~echo_is_retx ~acked_was_retx =
  (* Karn's rule: never time a segment that was retransmitted. *)
  if not (echo_is_retx || acked_was_retx) then begin
    let sample = Engine.Sim.now t.sim -. tstamp_echo in
    if sample > 0.0 then begin
      (if Float.is_nan t.cc.srtt then begin
         t.cc.srtt <- sample;
         t.cc.rttvar <- sample /. 2.0
       end
       else begin
         let err = sample -. t.cc.srtt in
         t.cc.srtt <- t.cc.srtt +. (0.125 *. err);
         t.cc.rttvar <- (0.75 *. t.cc.rttvar) +. (0.25 *. Float.abs err)
       end);
      t.cc.rto <-
        Float.max min_rto
          (Float.min max_rto (t.cc.srtt +. (4.0 *. t.cc.rttvar)))
    end
  end

let enter_fast_recovery t =
  let fl = float_of_int (flight t) in
  t.cc.ssthresh <- Float.max 2.0 (fl /. 2.0);
  t.cc.cwnd <- t.cc.ssthresh +. 3.0;
  t.in_recovery <- true;
  t.recover <- t.snd_nxt;
  send_segment t ~seq:t.snd_una ~is_retx:true

let on_timeout t =
  t.timeouts <- t.timeouts + 1;
  t.cc.ssthresh <- Float.max 2.0 (float_of_int (flight t) /. 2.0);
  t.cc.cwnd <- 1.0;
  t.dupacks <- 0;
  t.in_recovery <- false;
  t.backoff <- Stdlib.min 6 (t.backoff + 1);
  if t.running && Serial.( < ) t.snd_una t.snd_nxt then begin
    send_segment t ~seq:t.snd_una ~is_retx:true;
    arm_rto t
  end

let create ~sim ~transmit () =
  let t =
    {
      sim;
      transmit;
      was_retx = Array.make 64 false;
      mask = 63;
      running = false;
      snd_una = Serial.zero;
      snd_nxt = Serial.zero;
      cc =
        {
          cwnd = initial_window;
          ssthresh = initial_ssthresh;
          srtt = Float.nan;
          rttvar = 0.0;
          rto = 1.0;
        };
      dupacks = 0;
      recover = Serial.zero;
      in_recovery = false;
      backoff = 0;
      rto_timer = ref None;
      sent = 0;
      retx = 0;
      timeouts = 0;
    }
  in
  t.rto_timer :=
    Some (Engine.Timer.create sim ~on_expire:(fun () -> on_timeout t));
  t

let start t =
  if not t.running then begin
    t.running <- true;
    fill_window t
  end

let[@vtp.hot] on_ack t (ack : Tcp_wire.ack) =
  if Serial.( > ) ack.cum_ack t.snd_una then begin
    (* New data acknowledged.  Acked slots need no cleanup: the ring
       slot is cleared when a fresh send reclaims the number. *)
    let acked_was_retx = t.was_retx.(slot t t.snd_una) in
    t.snd_una <- ack.cum_ack;
    t.backoff <- 0;
    sample_rtt t ~tstamp_echo:ack.tstamp_echo ~echo_is_retx:ack.echo_is_retx
      ~acked_was_retx;
    if t.in_recovery then begin
      if Serial.( >= ) ack.cum_ack t.recover then begin
        (* Full ack: leave recovery, deflate. *)
        t.in_recovery <- false;
        t.cc.cwnd <- t.cc.ssthresh;
        t.dupacks <- 0
      end
      else begin
        (* Partial ack: retransmit the next hole, stay in recovery. *)
        send_segment t ~seq:t.snd_una ~is_retx:true;
        t.cc.cwnd <- Float.max 1.0 (t.cc.cwnd -. 1.0)
      end
    end
    else begin
      t.dupacks <- 0;
      if t.cc.cwnd < t.cc.ssthresh then t.cc.cwnd <- t.cc.cwnd +. 1.0
      else t.cc.cwnd <- t.cc.cwnd +. (1.0 /. t.cc.cwnd)
    end;
    if Serial.( < ) t.snd_una t.snd_nxt then arm_rto t else disarm_rto t;
    fill_window t
  end
  else if Serial.equal ack.cum_ack t.snd_una && Serial.( < ) t.snd_una t.snd_nxt
  then begin
    (* Duplicate ack. *)
    if t.in_recovery then begin
      t.cc.cwnd <- t.cc.cwnd +. 1.0;
      fill_window t
    end
    else begin
      t.dupacks <- t.dupacks + 1;
      if t.dupacks = 3 then enter_fast_recovery t
    end
  end

let cwnd t = t.cc.cwnd
let ssthresh t = t.cc.ssthresh
let srtt t = if Float.is_nan t.cc.srtt then None else Some t.cc.srtt
let rto t = rto_value t
let segments_sent t = t.sent
let retransmits t = t.retx
let timeouts t = t.timeouts
