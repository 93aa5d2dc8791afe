(** TCP NewReno sender (RFC 5681/6582 behaviour at packet granularity).

    Slow start, congestion avoidance, fast retransmit on three duplicate
    ACKs, NewReno fast recovery with partial-ACK retransmissions, and a
    Jacobson/Karn retransmission timer with exponential backoff.  The
    congestion window is counted in segments, as in packet-level
    simulators; the application is greedy (always has data) unless a
    rate cap is configured. *)

type params = {
  packet_size : int;  (** payload bytes per segment *)
  initial_window : float;  (** segments; RFC 3390 allows up to 4 *)
  initial_ssthresh : float;
  min_rto : float;
  max_rto : float;
  use_sack : bool;  (** use SACK blocks for recovery bookkeeping *)
  delayed_acks : bool;  (** receiver acks every other segment (RFC 1122) *)
}

val default_params : params

type t

val create :
  sim:Engine.Sim.t ->
  params ->
  transmit:(Tcp_wire.seg -> payload:int -> unit) ->
  unit ->
  t

val start : t -> unit
val stop : t -> unit

val on_ack : t -> Tcp_wire.ack -> unit

val cwnd : t -> float
val ssthresh : t -> float
val srtt : t -> float option
val rto : t -> float
val segments_sent : t -> int
val retransmits : t -> int
val timeouts : t -> int
