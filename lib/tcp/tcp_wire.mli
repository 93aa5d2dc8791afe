(** TCP segment bodies carried through the simulator.

    TCP is the paper's baseline; it gets its own frame bodies rather
    than reusing the VTP header, mirroring the fact that it is a
    distinct wire protocol. *)

type seg = {
  seq : Packet.Serial.t;  (** segment number (packet-granularity) *)
  tstamp : float;  (** send time, echoed by the ACK for RTT sampling *)
  is_retx : bool;
}

type ack = {
  cum_ack : Packet.Serial.t;  (** next expected segment *)
  tstamp_echo : float;
  echo_is_retx : bool;  (** the echoed timestamp came from a retransmit *)
}

type Netsim.Frame.body += Seg of seg | Ack of ack

val seg_size : payload:int -> int
(** 40 B TCP/IP header + payload. *)

val ack_size : int
(** 40 B: a TCP/IP header without options. *)
