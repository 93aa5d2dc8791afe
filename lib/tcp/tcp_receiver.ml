type t = {
  use_sack : bool;
  tracker : Sack.Rcv_tracker.t;
  send_ack : Tcp_wire.ack -> size:int -> unit;
  delack : Engine.Timer.t option ref;  (* armed = an ack is owed *)
  mutable pending : int;  (* in-order segments since the last ack *)
  mutable last_seg : Tcp_wire.seg option;
  mutable acks : int;
}

let emit_ack t (seg : Tcp_wire.seg) =
  t.pending <- 0;
  (match !(t.delack) with Some tm -> Engine.Timer.stop tm | None -> ());
  let blocks =
    if t.use_sack then Sack.Rcv_tracker.sack_blocks t.tracker else []
  in
  let ack =
    {
      Tcp_wire.cum_ack = Sack.Rcv_tracker.cum_ack t.tracker;
      blocks;
      tstamp_echo = seg.tstamp;
      echo_is_retx = seg.is_retx;
    }
  in
  t.acks <- t.acks + 1;
  t.send_ack ack ~size:(Tcp_wire.ack_size ~blocks:(List.length blocks))

let create ?(use_sack = false) ?delayed_acks ~send_ack () =
  let t =
    {
      use_sack;
      tracker = Sack.Rcv_tracker.create ~max_blocks:3 ~deliver:ignore ();
      send_ack;
      delack = ref None;
      pending = 0;
      last_seg = None;
      acks = 0;
    }
  in
  (match delayed_acks with
  | Some sim ->
      t.delack :=
        Some
          (Engine.Timer.create sim ~on_expire:(fun () ->
               match t.last_seg with
               | Some seg when t.pending > 0 -> emit_ack t seg
               | Some _ | None -> ()))
  | None -> ());
  t

let on_segment t (seg : Tcp_wire.seg) =
  let cum_before = Sack.Rcv_tracker.cum_ack t.tracker in
  Sack.Rcv_tracker.on_data t.tracker ~seq:seg.seq;
  let cum_after = Sack.Rcv_tracker.cum_ack t.tracker in
  t.last_seg <- Some seg;
  match !(t.delack) with
  | None -> emit_ack t seg
  | Some tm ->
      (* RFC 1122: out-of-order (or gap-filling) segments are acked at
         once so fast retransmit keeps its dupack clock; in-order
         segments are acked every second one or after 200 ms. *)
      let in_order =
        Packet.Serial.( > ) cum_after cum_before
        && Packet.Serial.equal cum_after (Packet.Serial.succ seg.seq)
      in
      if not in_order then emit_ack t seg
      else begin
        t.pending <- t.pending + 1;
        if t.pending >= 2 then emit_ack t seg
        else Engine.Timer.start tm ~after:0.2
      end

let cum_ack t = Sack.Rcv_tracker.cum_ack t.tracker

let segments_received t = Sack.Rcv_tracker.packets t.tracker

let duplicates t = Sack.Rcv_tracker.duplicates t.tracker

let acks_sent t = t.acks
