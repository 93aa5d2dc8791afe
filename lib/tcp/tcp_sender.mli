(** TCP NewReno sender (RFC 5681/6582 behaviour at packet granularity).

    Slow start, congestion avoidance, fast retransmit on three duplicate
    ACKs, NewReno fast recovery with partial-ACK retransmissions, and a
    Jacobson/Karn retransmission timer with exponential backoff.  The
    congestion window is counted in segments, as in packet-level
    simulators; the application is greedy (always has data).  The
    initial window is 2 segments, the initial ssthresh 64, and the RTO
    is kept within [0.2, 60] s. *)

val packet_size : int
(** Payload bytes per segment: 1460. *)

type t

val create :
  sim:Engine.Sim.t ->
  transmit:(Tcp_wire.seg -> unit) ->
  unit ->
  t

val start : t -> unit

val on_ack : t -> Tcp_wire.ack -> unit

val cwnd : t -> float
val ssthresh : t -> float
val srtt : t -> float option
val rto : t -> float
val segments_sent : t -> int
val retransmits : t -> int
val timeouts : t -> int
