(** Intra-trunk scheduling: which users' bytes ride the next segment.

    The trunk's congestion controller decides {e when} a segment may go;
    this module decides {e whose} backlog fills it.  Two disciplines:

    - [Fifo]: admission order, chunk by chunk — one heavy user can
      monopolise the trunk;
    - [Drr]: deficit round robin over the backlogged users with
      per-user byte quanta scaled by integer weights — each
      continuously-backlogged user's service stays within one quantum
      plus one sub-frame of its weight-proportional share (the classic
      DRR bound), at O(1) scheduling work per allocation.

    Round state persists across segments: a user's unspent deficit
    carries to the next transmission opportunity, so the fairness bound
    holds over any segment boundary.  The differential battery checks
    the fast ring-based implementation against a naive reference
    rebuilt per allocation. *)

type kind = Fifo | Drr

val default_quantum : int
(** Default DRR byte quantum per turn and unit weight (1500 — one
    bottleneck packet's worth, so a round costs each backlogged user at
    most one segment of latency per competitor). *)

type t

val create : ?quantum:int -> ?weights:int array -> kind -> users:int -> unit -> t
(** [weights] (DRR only) scales each user's quantum; missing entries and
    values [< 1] count as 1.  Raises [Invalid_argument] when
    [users < 1] or [quantum < 1]. *)

val enqueue : t -> user:int -> int -> unit
(** Add backlog bytes for a user (admission). *)

val backlog : t -> user:int -> int

val total : t -> int
(** Total backlogged bytes across users. *)

val fill :
  t ->
  budget:int ->
  overhead:int ->
  cap:int ->
  f:(user:int -> take:int -> unit) ->
  int
(** Plan one segment: allocate sub-frames until the [budget] (payload
    bytes available in the segment) cannot fit [overhead + 1] more
    bytes or no backlog remains.  Each allocation costs
    [overhead + take] budget bytes with [1 <= take <= cap]; [f] is
    called in emission order and the corresponding backlog is consumed.
    Returns the budget bytes used. *)
