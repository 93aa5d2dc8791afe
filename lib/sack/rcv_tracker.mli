(** Receiver-side reception tracking — the whole per-packet work of a
    QTP_light receiver, and every QTP receiver's one receive window.

    Maintains the cumulative acknowledgment point and the set of
    out-of-order ranges, delivers in order, and renders RFC 2018-style
    SACK feedback: the first reported block contains the most recently
    received segment, then the most recently changed other blocks, up
    to [max_blocks].

    In-order delivery: whenever the cumulative point passes a received
    number — an in-order arrival, a range it absorbs, or a forward
    point — [deliver] is called once for it, in ascending order.  The
    numbers a forward point passes without having received them are
    counted as skipped, a gap at a time.

    Cost: a data packet costs a few binary seeks over the out-of-order
    ranges, the runs on the shorter side of the one edit it makes and
    one [deliver] per number it releases; a report costs
    O([max_blocks] · log ranges) amortised, however many ranges are
    held.  ["recv.light.packet"] is charged once per data packet
    and ["recv.light.feedback"] once per report, so experiments can
    contrast this against the standard receiver's loss-history
    charges. *)

type t

val create :
  ?max_blocks:int ->
  ?cost:Stats.Cost.t ->
  deliver:(Packet.Serial.t -> unit) ->
  unit ->
  t
(** [max_blocks] defaults to 4, the SACK-option budget of RFC 2018.
    The range arrays start empty and grow on the first out-of-order
    arrival. *)

val on_data : t -> seq:Packet.Serial.t -> unit

val apply_fwd_point : t -> Packet.Serial.t -> unit
(** Honour a sender forward point: abandon holes below it, advancing the
    cumulative ack to at least that sequence number and delivering the
    ranges it passes.  Keeps receiver state bounded when the sender runs
    partial or no reliability.  Costs one step per range passed, plus
    one delivery per received number, however far the point jumps. *)

val cum_ack : t -> Packet.Serial.t
(** Next expected sequence number (0 initially). *)

val sack_blocks : t -> Packet.Header.sack_block list
(** Blocks for the next report (normalised subset, recency-ordered,
    at most [max_blocks]): the [max_blocks] most recently touched
    ranges, newest first.  O([max_blocks] · log ranges) amortised. *)

val all_ranges : t -> Packet.Header.sack_block list
(** Every out-of-order range currently held (normalised, ascending). *)

val highest_expected : t -> Packet.Serial.t
(** One past the highest sequence number received: the end of the last
    out-of-order range, or {!cum_ack} when there is none.  O(1),
    allocation-free. *)

val ranges_held : t -> int
(** Out-of-order ranges currently tracked — introspection for the
    adversarial fragmentation and duplicate-flood tests. *)

val received : t -> Packet.Serial.t -> bool
(** Has this sequence number been received (cumulative or ranged)? *)

val packets : t -> int

val duplicates : t -> int
(** Data packets that were already covered when they arrived. *)

val delivered : t -> int
(** Numbers handed to [deliver]. *)

val skipped : t -> int
(** Numbers a forward point passed without their having arrived. *)

val test_only_skip_dup_check : bool ref
(** Deliberate-bug hook, for tests only (default [false]): disables the
    duplicate check in {!on_data}, so a duplicated or spuriously
    retransmitted segment corrupts the range list and the damage leaks
    into SACK reports.  The fuzz suite's negative test flips this to
    prove the harness detects (and shrinks) exactly this class of
    receiver bug. *)
