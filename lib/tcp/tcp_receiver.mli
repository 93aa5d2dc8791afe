(** TCP receiver: one cumulative ACK per arriving segment, built on
    {!Sack.Rcv_tracker}. *)

type t

val create : send_ack:(Tcp_wire.ack -> unit) -> unit -> t
(** [send_ack] carries each ACK, {!Tcp_wire.ack_size} bytes on the
    wire. *)

val on_segment : t -> Tcp_wire.seg -> unit

val cum_ack : t -> Packet.Serial.t
(** Next expected segment = segments delivered in order so far. *)

val segments_received : t -> int
val acks_sent : t -> int
