(** Fuzzing campaigns: seed sweeps, the profile matrix and the fixed
    smoke corpus.

    Every campaign fans its per-seed executions out with
    {!Engine.Pool.map} ([jobs] workers, default [$VTP_JOBS] or the
    recommended domain count) and then aggregates — and fires the
    [progress] callback — in seed order, so a campaign's output is
    byte-identical at [jobs = 1] and [jobs = N].  Each scenario is a
    pure function of its seed; nothing crosses tasks. *)

type found = {
  report : Exec.report;
  shrunk : Shrink.outcome option;  (** present when shrinking was on *)
}

type soak = {
  runs : int;
  found : found list;  (** failing scenarios, in seed order *)
  handshake_timeouts : int;
      (** benign: negotiation gave up on a faulty path — reported so a
          campaign summary can show how hostile the sampled networks
          were *)
}

val still_fails : Scenario.t -> bool
(** Re-execute and ask whether any failure (invariant or oracle)
    remains — the shrinker's predicate. *)

val run_scenario : ?shrink:bool -> Scenario.t -> found
(** Execute one scenario; when [shrink] (default false) and it failed,
    greedily minimise it. *)

val digest : Exec.report -> string
(** Stable hex fingerprint of a report (MD5 of its rendering).  A
    report is a pure function of its scenario, so equal digests across
    [--jobs] values prove schedule independence — the [@par-smoke]
    gate diffs exactly these. *)

val soak :
  ?base:int ->
  ?band:[ `Std | `Lfn | `Handover | `Trunk ] ->
  ?shrink:bool ->
  ?progress:(int -> Exec.report -> unit) ->
  ?jobs:int ->
  seeds:int ->
  unit ->
  soak
(** Run seeds [base .. base + seeds - 1] (default base 1) in
    generation [band] (default [`Std], see {!Scenario.generate_in}). *)

val run_seeds :
  ?band:[ `Std | `Lfn | `Handover | `Trunk ] ->
  ?shrink:bool ->
  ?progress:(int -> Exec.report -> unit) ->
  ?jobs:int ->
  int list ->
  soak
(** Run an explicit seed list (e.g. {!smoke_corpus}), same reporting
    as {!soak}. *)

val matrix_cells : Scenario.profile list
(** The six profile/reliability compositions the paper distinguishes:
    TFRC alone, TFRC+full, QTP_AF, and QTP_light under each reliability
    mode. *)

val matrix :
  ?base:int ->
  ?shrink:bool ->
  ?progress:(int -> Exec.report -> unit) ->
  ?jobs:int ->
  seeds_per_cell:int ->
  unit ->
  soak
(** For every cell, generate scenarios and force the cell's profile
    onto them — every composition gets exercised regardless of the
    generator's sampling. *)

val smoke_corpus : int list
(** The 25 fixed seeds dune's [@fuzz-smoke] alias replays on every test
    run.  Append new seeds to grow coverage; never reshuffle. *)
