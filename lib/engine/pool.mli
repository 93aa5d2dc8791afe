(** A reusable work-stealing domain pool for embarrassingly-parallel
    fan-out (fuzz seeds, experiment tables, seed sweeps, golden
    replays).

    The pool owns [jobs - 1] worker domains (the caller participates as
    the remaining worker, so [jobs = 1] spawns nothing and degenerates
    to plain sequential execution).  A batch of [n] independent tasks is
    split into [jobs] contiguous lanes, each with its own atomic cursor;
    a worker drains its own lane and then steals from the other lanes'
    cursors, so uneven task durations balance without a central queue.

    {b Determinism contract.}  Results are always delivered in
    submission order, whatever interleaving the domains produced, and a
    task's exception is re-raised at the lowest failing index.  A task
    must derive everything it does from its own inputs (typically a
    seed): ambient per-domain state (the flight recorder, the
    [Qtp.Inspect] hooks, frame-uid counters) is domain-local, so tasks
    never observe each other.  Under that contract [map] output is a
    pure function of the inputs — byte-identical at [jobs = 1] and
    [jobs = N] — which the [@par-smoke] alias enforces on every test
    run.

    Tasks must not submit work to the pool they run on (no nesting);
    [Domain.spawn] outside this module is rejected by the source lint. *)

type t

val jobs_of_string : string -> (int, string) result
(** The worker-count rule for [--jobs] and [$VTP_JOBS] alike: an integer
    of at least 1, clamped to 128; anything else is an [Error] naming
    the value. *)

val default_jobs : unit -> int
(** [$VTP_JOBS] read by {!jobs_of_string} if set (a bad value raises
    [Invalid_argument]), else [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] workers (default {!default_jobs}).  The
    calling domain counts as one worker: [jobs - 1] domains are
    spawned.  [jobs < 1] raises [Invalid_argument]. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] computes [f] over every element, in parallel across
    the pool's workers, and returns the results {e in submission
    order}.  If any task raised, the exception of the lowest-index
    failing task is re-raised after the whole batch has settled.  Not
    re-entrant: must be called from the domain that created the pool,
    and never from inside a task. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

val tabulate : t -> int -> (int -> 'b) -> 'b array
(** [tabulate pool n f] is [map pool f [|0; ...; n-1|]]. *)

val shutdown : t -> unit
(** Join every worker domain.  Idempotent.  The pool must not be used
    afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, even on exception. *)
