(** Execute one scenario under the protocol-invariant checker and the
    end-of-run oracles.

    The run builds the scenario's topology (fault injection included),
    drives one VTP connection per flow through negotiation, data
    transfer and graceful close, and checks:

    - every {!Analysis.Invariants} catalogue invariant, live;
    - {b no-hang}: every connection reaches [Closed] by a fixed drain
      horizon (a handshake timeout is tolerated on faulty paths — six
      straight SYN losses are legitimate protocol behaviour, not a
      bug);
    - {b negotiation}: the agreed plane / mode match what the offers
      dictate;
    - {b full reliability}: a connection that agreed [R_full] and
      closed cleanly delivered exactly the prefix of distinct segments
      it sent — nothing skipped, nothing abandoned;
    - {b a repair arrives once}: on a scenario with no active mangler
      and no handover, a standard-plane flow with a SACK plane whose
      expiry timer inferred no loss received no duplicate data segment
      (light-plane flows are exempt: a per-RTT report of a few blocks
      can leave a filled hole unreported);
    - {b trunk conservation} (trunk scenarios): every user byte shipped
      through the trunk was delivered exactly once, byte-identical
      (running digests compared per user), and drained users shipped
      everything they admitted — see {!Trunk.Mux.check_conservation}.

    Everything is a pure function of the scenario (globally allocated
    frame uids aside, which carry no behaviour), so a report reproduces
    from the scenario value alone. *)

type failure =
  | Invariant of Analysis.Invariants.violation
  | Oracle of { flow : int; what : string }
  | Crash of string
      (** an exception escaped the simulation — always a finding *)

type flow_stats = {
  flow : int;
  final : string;  (** connection state at the drain horizon *)
  data_sent : int;  (** distinct data segments *)
  retx : int;
  delivered : int;
  skipped : int;
  abandoned : int;
}

type trunk_stats = {
  tk_users : int;
  tk_admitted : int;  (** user bytes accepted into admission queues *)
  tk_shipped : int;  (** user bytes packed into trunk segments *)
  tk_delivered : int;  (** user bytes handed back, demultiplexed *)
  tk_segments : int;
  tk_frames : int;
  tk_rejected : int;  (** offered bytes refused by admission control *)
  tk_junk : int;  (** parser resync bytes — nonzero is a codec bug *)
  tk_jain : float;  (** Jain fairness over per-user delivered bytes *)
}

type report = {
  scenario : Scenario.t;
  failures : failure list;  (** empty = scenario passed *)
  flows : flow_stats list;
  mangled : Netsim.Mangler.stats;  (** summed over every mangled link *)
  trunk : trunk_stats option;  (** present on [`Trunk]-band scenarios *)
  handshake_timeouts : int;
  checker_events : int;
}

val run : Scenario.t -> report
(** Build and run the scenario's simulation, then check its
    oracles. *)

val passed : report -> bool

val pp_report : Format.formatter -> report -> unit
