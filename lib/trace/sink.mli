(** A sink binds the ambient recorder to one connection's flow id and
    clock.

    Protocol modules sit at different distances from the simulation:
    TFRC endpoints hold the sim, the SACK scoreboard deliberately holds
    neither a sim nor a flow id.  A sink packages both as closures so a
    module can stamp events without growing new fields, and so passing
    [?trace:Sink.t] through a constructor stays a one-word option. *)

type t = { flow : int; now : unit -> float }

val make : flow:int -> now:(unit -> float) -> t

val of_sim : Engine.Sim.t -> flow:int -> t
(** Clock = the simulation's virtual time. *)

val on : t option -> bool
(** Cheap hot-path guard: a sink is present {e and} a recorder is
    installed.  Call before allocating an event. *)

val emit : t option -> Event.t -> unit
(** Record into the ambient recorder, stamped with the sink's flow and
    current time.  No-op when the sink is [None] or tracing is off. *)
