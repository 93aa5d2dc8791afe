(** A complete TCP connection wired onto a {!Netsim.Topology.endpoint}.

    The flow owns both ends, converts segments/ACKs to simulator frames,
    and records the receiver's in-order (goodput) byte arrivals into a
    {!Stats.Series} for analysis. *)

type t

val create :
  sim:Engine.Sim.t ->
  endpoint:Netsim.Topology.endpoint ->
  ?start_at:float ->
  unit ->
  t
(** Builds and (at [start_at], default 0) starts a greedy transfer. *)

val sender : t -> Tcp_sender.t
val receiver : t -> Tcp_receiver.t

val goodput_series : t -> Stats.Series.t
(** In-order delivered bytes at the receiver (time-stamped). *)

val goodput_bps : t -> from_:float -> until:float -> float
