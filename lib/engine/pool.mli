(** One-shot work-stealing fan-out for embarrassingly-parallel batches
    (fuzz seeds, experiment tables, seed sweeps, golden replays).

    {!map} splits a batch of [n] independent tasks into [min jobs n]
    contiguous lanes, each with its own atomic cursor, and spawns one
    domain per lane but the first, which the caller drains itself
    ([jobs = 1] or [n <= 1] spawns nothing and is [Array.map]).  A
    worker drains its own lane and then steals from the other lanes'
    cursors, so uneven task durations balance without a central queue;
    every domain is joined before [map] returns.

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

    Tasks must not call [map] themselves (no nesting); [Domain.spawn]
    outside this module is rejected by the source lint. *)

val jobs_of_string : string -> (int, string) result
(** The worker-count rule for [--jobs] and [$VTP_JOBS] alike: an integer
    of at least 1, clamped to 128; anything else is an [Error] naming
    the value. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs f xs] computes [f] over every element on [jobs] workers
    and returns the results {e in submission order}.  If any task
    raised, the exception of the lowest-index failing task is re-raised
    after every task has run (on one worker, at once, as [Array.map]
    does).  [jobs] defaults to [$VTP_JOBS] read by
    {!jobs_of_string} (a bad value raises [Invalid_argument]), else
    [Domain.recommended_domain_count ()]; [jobs < 1] raises
    [Invalid_argument]. *)
