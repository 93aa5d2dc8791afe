(** Randomised end-to-end protocol scenarios.

    A scenario is a fully self-describing value: topology shape, path
    parameters, queueing discipline, loss model, in-network fault
    profile ({!Netsim.Mangler.profile}), negotiated QTP profile,
    application workload, background traffic and run duration.
    {!generate} derives every field deterministically from a single
    integer seed, so a failing scenario is reproduced by its seed alone;
    the shrinker ({!Shrink}) edits fields directly. *)

type shape =
  | Dumbbell of int  (** n parallel VTP flows over one bottleneck *)
  | Chain of int  (** one flow over this many hops in a row *)
  | Parking_lot of int
      (** one long flow over all hops plus a cross flow on the last *)

type loss =
  | Clean
  | Bernoulli of float
  | Gilbert of { loss : float; burstiness : float }
      (** stationary loss rate; higher burstiness concentrates losses *)

type profile =
  | P_af of float
      (** QTP_AF with a committed rate of this fraction of the fair
          share *)
  | P_light of Qtp.Capabilities.reliability_mode  (** QTP_light *)
  | P_tfrc  (** plain TFRC, no reliability *)
  | P_full  (** TFRC + full reliability, best-effort network *)

type workload =
  | Greedy
  | Cbr of float  (** rate as a fraction of the fair share *)
  | On_off of float

(** {2 Mobility}

    A handover scenario runs one flow over a set of heterogeneous
    paths (WiFi / cellular / satellite) and migrates it between them
    mid-connection on a seeded schedule, exercising
    {!Netsim.Topology.apply_schedule} and the {!Tfrc.Handover} rate
    policies. *)

type link_class = Wifi | Cellular | Satellite

type ho_link = {
  cls : link_class;
  ho_rate_mbps : float;
  ho_delay_ms : float;  (** one-way propagation delay *)
  ho_loss : float;  (** Bernoulli loss on this path; 0 = clean *)
}

type handover = {
  ho_links : ho_link list;  (** the path set; index 0 starts active *)
  ho_schedule : (float * int * [ `Drain | `Cut ]) list;
      (** (time, target path, mode), ascending times *)
  ho_policy : [ `Keep | `Reset | `Informed ];
      (** sender rate policy applied on each migration *)
}

(** {2 Trunking}

    A trunk scenario multiplexes many user micro-flows over ONE
    gTFRC-controlled connection ({!Trunk.Mux}): heavy-tailed per-user
    workloads, an intra-trunk scheduler, and full reliability so the
    byte-conservation oracle applies end to end. *)

type trunk = {
  tr_users : int;  (** multiplexed micro-flows (10..1000) *)
  tr_sched : [ `Fifo | `Drr ];  (** intra-trunk scheduling discipline *)
  tr_quantum : int;  (** DRR byte quantum *)
  tr_frame_cap : int;  (** max user payload bytes per sub-frame *)
}

type t = {
  seed : int;  (** replay key: seeds the generator and the simulation *)
  shape : shape;
  rate_mbps : float;  (** bottleneck rate *)
  delay_ms : float;  (** bottleneck one-way propagation delay *)
  buffer_pkts : int;
  red : bool;  (** RED bottleneck queue instead of droptail *)
  loss : loss;
  mangle : Netsim.Mangler.profile;  (** forward-path fault injection *)
  mangle_reverse : bool;  (** also mangle the feedback path *)
  profile : profile;
  workload : workload;
  background : bool;  (** unresponsive Poisson cross-traffic *)
  duration : float;  (** seconds of data transfer before close *)
  handover : handover option;
      (** mobility schedule; [None] outside the [`Handover] band *)
  trunk : trunk option;
      (** flow-aggregation setup; [None] outside the [`Trunk] band *)
}

val generate : seed:int -> t
(** The scenario is a pure function of [seed]; shorthand for
    {!generate_in}[ ~band:`Std] — byte-identical to what every
    committed fuzz seed has always produced. *)

val generate_in : band:[ `Std | `Lfn | `Handover | `Trunk ] -> seed:int -> t
(** The scenario is a pure function of [band] and [seed].  [`Std]
    draws the classic short-path bounds; [`Lfn] draws the same
    scenario structure over long-fat-network paths: 125..250 ms
    one-way delay (250..500 ms RTT), 8..64 Mb/s bottlenecks,
    500..1500-packet buffers and shorter durations.  [`Handover]
    replays the standard draw sequence, then forces a single flow
    with no background traffic over a heterogeneous WiFi / cellular /
    satellite path triple and a 2–4-event migration schedule whose
    times come from an {!Engine.Rng.derive}d stream (independent of
    draw position).  [`Trunk] likewise replays the standard sequence,
    then forces a single full-reliability connection fronting
    10..1000 multiplexed users (trunk parameters from a derived
    stream); the base path, loss model and mangler stay, so trunks
    face reordered / duplicated / corrupted links.  All bands consume
    the base generator identically, so a seed's [`Std] scenario never
    changes as bands are added. *)

val flows : t -> int
(** Number of VTP connections the scenario runs. *)

val expected_mode : t -> Qtp.Capabilities.reliability_mode
(** The reliability mode negotiation must arrive at (the responder is
    fully permissive, so the initiator's preference wins). *)

val expected_plane : t -> Qtp.Capabilities.feedback_plane

val faulty : t -> bool
(** Any loss model or fault injection active — when false, e.g. a
    handshake timeout is inexcusable. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Multi-line, deterministic rendering (replay output is compared
    byte-for-byte). *)

val summary : t -> string
(** One line: seed, shape, profile, loss, duration. *)
