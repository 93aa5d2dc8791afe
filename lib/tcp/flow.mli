(** A complete TCP connection wired onto a {!Netsim.Topology.endpoint}.

    The flow owns both ends and converts segments/ACKs to simulator
    frames.  It counts the receiver's in-order (goodput) bytes and keeps
    no per-packet log: a caller that needs goodput over a time window
    records it through {!set_on_deliver}. *)

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

val set_on_deliver : t -> (bytes:int -> unit) -> unit
(** Install an in-order delivery tap on the receiving side: called each
    time the receiver's cumulative point advances, with the advance in
    payload bytes ({!Tcp_sender.packet_size} per segment).  Taps
    accumulate: a later call runs its tap after the ones already
    installed and never replaces them. *)

val goodput_series : t -> Stats.Series.t
(** The in-order payload bytes delivered so far, as a fresh one-sample
    series stamped at the current simulated time.  It exists for the
    benchmark, which reads only its total; goodput over a window comes
    from a {!set_on_deliver} tap. *)
