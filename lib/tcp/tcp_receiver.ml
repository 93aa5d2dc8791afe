type t = {
  tracker : Sack.Rcv_tracker.t;
  send_ack : Tcp_wire.ack -> unit;
  mutable acks : int;
}

let create ~send_ack () =
  { tracker = Sack.Rcv_tracker.create ~deliver:ignore (); send_ack; acks = 0 }

let on_segment t (seg : Tcp_wire.seg) =
  Sack.Rcv_tracker.on_data t.tracker ~seq:seg.seq;
  t.acks <- t.acks + 1;
  t.send_ack
    {
      Tcp_wire.cum_ack = Sack.Rcv_tracker.cum_ack t.tracker;
      tstamp_echo = seg.tstamp;
      echo_is_retx = seg.is_retx;
    }

let cum_ack t = Sack.Rcv_tracker.cum_ack t.tracker

let segments_received t = Sack.Rcv_tracker.packets t.tracker

let acks_sent t = t.acks
