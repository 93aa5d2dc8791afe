(** Unresponsive background traffic.

    DiffServ assurance experiments need controllable *excess* load that
    does not react to congestion (out-of-profile aggregates, other
    classes' leakage).  The injector pushes raw frames straight into a
    sink with exponential inter-arrivals; it never listens. *)

type t

val poisson :
  sim:Engine.Sim.t ->
  sink:(Netsim.Frame.t -> unit) ->
  flow_id:int ->
  rng:Engine.Rng.t ->
  rate_bps:float ->
  packet_size:int ->
  ?stop_at:float ->
  unit ->
  t
(** Exponential inter-arrivals with the given average rate, from
    time 0; every frame is [Best_effort]. *)

val packets_sent : t -> int
val bytes_sent : t -> int
