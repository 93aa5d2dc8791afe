(** Live instrumentation: wire a running simulation into an
    {!Invariants} checker.

    The experiment harness ({!Experiments.Common}) and the fuzz
    executor both build a {!Netsim.Topology.t}, call {!instrument}
    before attaching transports, and install the {!Qtp.Inspect} rate
    hook around the run — every frame injection, delivery, drop,
    injected fault and TFRC rate update then feeds the checker. *)

val instrument : Invariants.t -> Netsim.Topology.t -> unit
(** Tap every endpoint (sent / delivered / feedback events for VTP
    frames) and every link (drop events, mangler fault accounting) of
    the topology.  Must be called before transports attach to the
    endpoints.  Feeds {!Invariants.Epoch} first, so flow ids may be
    reused across successive topologies on one checker. *)

val install_rate_hook : Invariants.t -> unit
(** Install the global {!Qtp.Inspect} hook feeding every TFRC rate
    sample to the checker.  One simulation at a time; pair with
    {!clear_rate_hook}. *)

val clear_rate_hook : unit -> unit

val with_checker : (Invariants.t -> 'a) -> 'a
(** [with_checker f] runs [f] with a fresh checker whose rate hook is
    installed, clears the hook afterwards (even on exception), and
    raises {!Invariants.Violation} if [f]'s run broke an invariant.
    [f] is responsible for calling {!instrument} on any topology it
    builds. *)
