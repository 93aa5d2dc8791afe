(** Canned topologies used by the experiments.

    Endpoints expose send functions toward the peer and accept a receive
    callback; transports plug in without knowing the topology shape. *)

type spec = {
  rate_bps : float;
  delay : float;
  qdisc : unit -> Qdisc.t;  (** fresh qdisc per link instance *)
  loss : unit -> Loss_model.t;  (** fresh loss model per link instance *)
  mangle : unit -> Mangler.t option;
      (** fresh fault-injection stage per link instance; [None] = clean *)
}

val spec :
  ?qdisc:(unit -> Qdisc.t) ->
  ?loss:(unit -> Loss_model.t) ->
  ?mangle:(unit -> Mangler.t option) ->
  rate_bps:float ->
  delay:float ->
  unit ->
  spec
(** Default qdisc: droptail of 100 packets; default loss: none; default
    mangler: none. *)

type endpoint = {
  flow_id : int;
  to_receiver : Frame.t -> unit;  (** sender-side injection (forward) *)
  to_sender : Frame.t -> unit;  (** receiver-side injection (reverse) *)
  on_receiver_rx : (Frame.t -> unit) -> unit;  (** receiver delivery hook *)
  on_sender_rx : (Frame.t -> unit) -> unit;  (** sender delivery hook *)
}

type t = {
  sim : Engine.Sim.t;
  bottleneck : Link.t;  (** shared forward bottleneck *)
  endpoints : endpoint array;
  links : Link.t list;
      (** every link in the topology, access links included — lets an
          observer (e.g. the invariant checker) register {!Link.on_drop}
          on all of them *)
}

val dumbbell :
  sim:Engine.Sim.t ->
  n_flows:int ->
  bottleneck:spec ->
  ?reverse:spec ->
  ?committed_rates:float array ->
  unit ->
  t
(** Classic dumbbell: per-flow access links into one shared bottleneck,
    one shared (ample) reverse link back.

    - [reverse] defaults to the bottleneck rate with the same delay and a
      large droptail buffer — feedback is not the bottleneck.
    - Access links run at 10x the bottleneck rate, 1 ms, large buffer.
    - [committed_rates.(i)], when given and positive, installs a DiffServ
      edge marker with that committed rate on flow [i]'s forward path
      (burst: 4 packets at 1500 B). *)

val duplex_path :
  sim:Engine.Sim.t -> forward:spec -> ?reverse:spec -> unit -> t
(** Two endpoints joined by a single forward link and a reverse link —
    the minimal topology ([endpoints] has one element, flow 0). *)

val parking_lot :
  sim:Engine.Sim.t ->
  hops:spec list ->
  paths:(int * int) array ->
  ?reverse:spec ->
  unit ->
  t
(** The classic parking-lot: [hops] links in a row; flow [i] enters
    before hop [fst paths.(i)] and leaves after hop [snd paths.(i) - 1]
    (half-open hop range, which must be non-empty and within bounds).
    One long flow crossing all hops competing with single-hop cross
    traffic is the standard multi-bottleneck fairness scenario; a
    multi-hop chain is the lot whose every path is [(0, n_hops)].  The
    router after each hop hands a frame on synchronously, and one shared
    reverse link carries feedback.  [t.bottleneck] is the slowest hop.
    Raises [Invalid_argument] on an empty hop list or a bad range. *)

val endpoint : t -> int -> endpoint

(** {1 Mobility} *)

type handover_mode = [ `Drain | `Cut ]
(** What happens to traffic still on the old path at migration time:
    [`Drain] lets it propagate and deliver normally (make-before-break);
    [`Cut] severs both directions — queued and in-flight frames drop
    with reason [D_cut] (break-before-make). *)

type mobile
(** A single-flow topology over several candidate duplex paths
    ("path-0", "path-1", …), exactly one active at a time.  Built for
    the heterogeneous-handover scenarios: each path has its own rate,
    delay, queue, loss and fault models (WiFi / 3G / satellite). *)

type handover_schedule = (float * int * handover_mode) list
(** Time-triggered switches: [(at, target path index, mode)]. *)

val mobile : sim:Engine.Sim.t -> paths:spec list -> unit -> mobile
(** One flow (flow 0) over [List.length paths] duplex paths; path 0 is
    active initially.  Each path's reverse link mirrors its forward rate
    and delay with an ample buffer, so feedback latency tracks the path.
    Raises [Invalid_argument] on an empty path list. *)

val mobile_net : mobile -> t
(** The underlying topology view: one endpoint (flow 0), [links] lists
    every path's forward and reverse links so observers can register
    drop hooks on all of them.  [bottleneck] is path 0's forward link. *)

val apply_schedule : mobile -> handover_schedule -> unit
(** Post one simulation event per entry, which atomically re-homes the
    flow onto path [to_]: the old path is severed iff [mode = `Cut], the
    target path is restored (it may have been severed by an earlier
    cut), a [Handover] trace event is emitted and the migration hook
    runs.  Migrating to the already active path is a complete no-op —
    no severing, no trace event, no hook — so degenerate schedules are
    observationally identical to no schedule. *)

val on_migrate : mobile -> (int -> unit) -> unit
(** Register the hook called with the new path index after each actual
    migration — the connection layer uses it to apply its handover rate
    policy.  One hook; later registrations replace earlier ones. *)

val path_fwd : mobile -> int -> Link.t
(** Forward link of path [i] — its {!Link.rate_bps}/{!Link.delay} are
    the "declared" parameters an informed handover policy consumes. *)

val path_rev : mobile -> int -> Link.t
