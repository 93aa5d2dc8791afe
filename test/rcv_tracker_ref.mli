(** Frozen per-entry reference implementation of {!Rcv_tracker}, kept as the
    differential-testing oracle for the run-length rewrite.

    Receiver-side reception tracking — the whole per-packet work of a
    QTP_light receiver.

    Maintains the cumulative acknowledgment point and the set of
    out-of-order ranges, and renders RFC 2018-style SACK feedback: the
    first reported block contains the most recently received segment,
    then the most recently changed other blocks, up to [max_blocks].

    Cost accounting: ["recv.light.packet"] is charged once per data
    packet and ["recv.light.feedback"] once per report — both O(1)
    amortised — so experiments can contrast this against the standard
    receiver's loss-history charges. *)

type t

val create : ?max_blocks:int -> ?cost:Stats.Cost.t -> unit -> t
(** [max_blocks] defaults to 4, the SACK-option budget of RFC 2018. *)

val on_data : t -> seq:Packet.Serial.t -> unit

val apply_fwd_point : t -> Packet.Serial.t -> unit
(** Honour a sender forward point: abandon holes below it, advancing the
    cumulative ack to at least that sequence number.  Keeps receiver
    state bounded when the sender runs partial or no reliability. *)

val cum_ack : t -> Packet.Serial.t
(** Next expected sequence number (0 initially). *)

val sack_blocks : t -> Packet.Header.sack_block list
(** Blocks for the next report (normalised subset, recency-ordered,
    at most [max_blocks]). *)

val all_ranges : t -> Packet.Header.sack_block list
(** Every out-of-order range currently held (normalised, ascending). *)

val highest_expected : t -> Packet.Serial.t
(** One past the highest sequence number received: the end of the last
    out-of-order range, or {!cum_ack} when there is none.  O(ranges),
    allocation-free. *)

val received : t -> Packet.Serial.t -> bool
(** Has this sequence number been received (cumulative or ranged)? *)

val packets : t -> int

val duplicates : t -> int
(** Data packets that were already covered when they arrived. *)

val test_only_skip_dup_check : bool ref
(** Deliberate-bug hook, for tests only (default [false]): disables the
    duplicate check in {!on_data}, so a duplicated or spuriously
    retransmitted segment corrupts the range list and the damage leaks
    into SACK reports.  The fuzz suite's negative test flips this to
    prove the harness detects (and shrinks) exactly this class of
    receiver bug. *)
