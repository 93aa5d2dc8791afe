(** Shared scenario scaffolding for the experiment suite.

    Every experiment builds its network from these helpers so that
    parameters (bottleneck speed, AF queue configuration, measurement
    windows) stay consistent across tables. *)

val mbps : float -> float
(** Megabits/s to bits/s. *)

val with_checked : checked:bool -> (unit -> 'a) -> 'a
(** [with_checked ~checked:true run] executes [run] with the
    protocol-invariant checker live: {!Qtp.Inspect} hooks feed every
    TFRC rate update, and any topology built through the helpers below
    (or passed to {!instrument}) is tapped for packet conservation and
    SACK well-formedness.  Raises {!Analysis.Invariants.Violation} with
    the first violation once [run] returns.  With [~checked:false] it is
    just [run ()]. *)

val with_trace : trace:bool -> (unit -> 'a) -> 'a * Trace.Recorder.t option
(** [with_trace ~trace:true run] executes [run] with the flight
    recorder live: every instrumented protocol module records its
    events, and the filled recorder comes back with the result.  With
    [~trace:false] it is [run ()] paired with [None]. *)

val instrument : Netsim.Topology.t -> unit
(** Tap a topology for the ambient checker installed by
    {!with_checked}; a no-op outside checked mode.  Must be called
    before transports attach to the endpoints.  The canned builders
    below already do this — only scenarios that assemble a raw
    {!Netsim.Topology.t} themselves need to call it. *)

val warmup : float
(** Seconds discarded at the start of every measurement (default 5). *)

val duration : float
(** Total simulated seconds per run (default 60). *)

val af_rio : ?capacity_pkts:int -> rng:Engine.Rng.t -> unit -> Netsim.Qdisc.t
(** The DiffServ/AF core queue used by all QoS experiments: RIO with a
    lenient in-profile RED curve (min 40% / max 70% of capacity, maxp
    0.02) and an aggressive out-of-profile curve (min 10% / max 30%,
    maxp 0.5).  The default 100-packet queue reproduces the historical
    40/70 and 10/30-packet thresholds; LFN scenarios pass a deeper
    [capacity_pkts] sized to their bandwidth-delay product. *)

val af_dumbbell :
  ?capacity_pkts:int ->
  seed:int ->
  n_flows:int ->
  bottleneck_mbps:float ->
  ?bottleneck_delay:float ->
  committed_mbps:float array ->
  unit ->
  Engine.Sim.t * Netsim.Topology.t
(** Dumbbell whose bottleneck runs {!af_rio}; per-flow edge markers are
    installed for every positive committed rate. *)

val plain_dumbbell :
  seed:int ->
  n_flows:int ->
  bottleneck_mbps:float ->
  ?buffer_pkts:int ->
  unit ->
  Engine.Sim.t * Netsim.Topology.t
(** Droptail dumbbell for fairness/smoothness experiments: a 30 ms
    bottleneck with [buffer_pkts] (default 85) of buffer. *)

val lossy_path :
  seed:int ->
  rate_mbps:float ->
  ?delay:float ->
  loss:(Engine.Rng.t -> Netsim.Loss_model.t) ->
  ?rev_loss:(Engine.Rng.t -> Netsim.Loss_model.t) ->
  unit ->
  Engine.Sim.t * Netsim.Topology.t
(** Single duplex path whose forward link applies the given loss model;
    [rev_loss] optionally applies one to the reverse (feedback) link. *)

val bernoulli : float -> Engine.Rng.t -> Netsim.Loss_model.t

val sink_background : Netsim.Topology.endpoint -> unit
(** Install a discarding receiver on a background flow's endpoint. *)

val measured_rate : Stats.Series.t -> float
(** Rate in bits/s over [warmup, duration). *)

val tcp_wire_rate : Stats.Series.t -> float
(** {!measured_rate} of a TCP flow's goodput (from {!tap_tcp_goodput}),
    scaled from payload to wire bytes so that it compares with a QTP
    flow's wire rate. *)

(** {1 Goodput taps}

    Neither transport logs its deliveries; a caller that reads goodput
    over a window installs one of these taps before the simulation
    runs.  Each records the (time, payload bytes) of every in-order
    delivery into the series it returns. *)

val tap_goodput : sim:Engine.Sim.t -> Qtp.Connection.t -> Stats.Series.t
(** Add a {!Qtp.Connection.set_on_deliver} tap (earlier taps are kept):
    one sample of {!Qtp.Vtp_wire.payload} bytes per delivered segment. *)

val tap_tcp_goodput : sim:Engine.Sim.t -> Tcp.Flow.t -> Stats.Series.t
(** Add a {!Tcp.Flow.set_on_deliver} tap (earlier taps are kept): one
    sample per advance of the receiver's cumulative point. *)

(** {1 Endpoint probes}

    Per-packet measurement and receiver misbehaviour, kept out of
    {!Qtp.Connection}: each probe wraps an endpoint before the
    connection attaches to it.  Probes compose, schedule nothing and
    draw no randomness, so a probed run is the same simulation. *)

val probe_arrivals :
  sim:Engine.Sim.t ->
  Netsim.Topology.endpoint ->
  Netsim.Topology.endpoint * Stats.Series.t
(** Log the wire bytes of every VTP data segment reaching the receiver
    (duplicates and out-of-order ones included) at its arrival time. *)

type delay_probe

val probe_delays :
  sim:Engine.Sim.t ->
  Netsim.Topology.endpoint ->
  Netsim.Topology.endpoint * delay_probe
(** Note each data segment's first send ([is_retransmit = false]);
    {!attach_delays} the probe to the connection built on the returned
    endpoint. *)

val attach_delays : delay_probe -> Qtp.Connection.t -> unit
(** Add a {!Qtp.Connection.set_on_deliver} tap (earlier taps are kept)
    that turns each in-order delivery into a delay sample. *)

val delivery_delays : delay_probe -> float array
(** First send to in-order delivery, per delivered segment, in delivery
    order; a number the receiver skipped gives no sample. *)

val selfish_receiver :
  p_factor:float -> Netsim.Topology.endpoint -> Netsim.Topology.endpoint
(** Lie on the wire: scale [p] by [p_factor] in every standard-plane
    [Feedback] frame the receiver sends, keeping the frame's uid.
    [Sack_feedback] passes untouched: the light plane reports no [p]. *)

val mobile_path :
  seed:int ->
  paths:(float * float) list ->
  ?mangle:Netsim.Mangler.profile ->
  unit ->
  Engine.Sim.t * Netsim.Topology.mobile
(** Single-flow mobile topology over [(rate_mbps, one-way delay)]
    duplex paths (path 0 active first; 60-packet droptail queues; the
    mangler profile, if active, applies to every forward path).
    Instrumented for checked mode like every other builder. *)

val declared_link : Netsim.Topology.mobile -> int -> Tfrc.Handover.link_info
(** The declared bandwidth / RTT of path [i] — what an informed
    handover notification carries. *)
