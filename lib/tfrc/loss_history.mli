(** Loss-event history and loss-event-rate estimation, RFC 3448 §5.

    This is the expensive half of TFRC: it watches the arrival stream
    for sequence holes, promotes holes to *losses* once enough later
    packets confirm them, groups losses within one RTT into a single
    *loss event* (matching TCP's one-halving-per-window), maintains the
    last [n = 8] loss-interval lengths, and computes the weighted
    average loss interval whose inverse is the loss event rate [p].

    The module is deliberately transport-agnostic: the classic TFRC
    receiver feeds it actual arrivals, while the QTP_light *sender*
    feeds it virtual arrivals reconstructed from SACK feedback.  That
    reuse is exactly the paper's point — the mechanism is unchanged,
    only its *location* moves.

    Holes are kept as runs of missing numbers ({!Packet.Runs}), each
    tagged with the epoch it was born at, so a sequence jump opens one
    run however wide, and a ripe run is promoted to losses whole.

    When a [cost] accountant is supplied, the structure charges
    ["lh.update"] per packet processed, ["lh.hole"] per hole tracked,
    ["lh.loss"] per packet declared lost and ["lh.rate_calc"] per
    interval term scanned when the rate is (re)computed, plus a
    ["lh.entries"] memory watermark — giving experiments an
    architecture-neutral view of who pays for loss estimation.  Each
    count is one counter update, however large. *)

type t

val create : ?discount:bool -> ?cost:Stats.Cost.t -> unit -> t
(** A hole is lost once 3 later packets have arrived (NDUPACK, RFC 3448
    §5.1), and the last 8 closed loss intervals are retained (§5.4).
    [discount] (default true): RFC 3448 §5.5 history discounting when
    the open interval grows beyond twice the closed mean. *)

val on_packet :
  t -> seq:Packet.Serial.t -> arrival:float -> rtt:float -> is_retx:bool -> unit
(** Account one packet of the (possibly reconstructed) arrival stream.
    [rtt] is the sender RTT estimate used for loss-event grouping;
    retransmissions ([is_retx]) are excluded from congestion accounting
    (the reliability plane, not the congestion plane, owns them).
    [arrival] must be finite and [rtt >= 0]: the numbers of a hole that
    ripens are then all lost at this arrival, so the first opens or
    joins a loss event and the rest join it, and the whole hole is
    promoted in O(1), however many numbers it spans. *)

val on_congestion_mark :
  t -> marks:int -> seq:Packet.Serial.t -> arrival:float -> rtt:float -> unit
(** Account [marks] (at least 1) ECN Congestion-Experienced signals
    carried at [seq]: they start (or join) one loss event exactly as a
    lost packet would — RFC 3168 requires the transport to react to a
    mark as it would to a drop — but no packet is actually missing.
    O(1) in [marks]; for a finite [arrival] and [rtt >= 0], the same as
    [marks] calls with [~marks:1]. *)

val set_first_interval : t -> float -> unit
(** Seed the synthetic interval preceding the first loss event
    (RFC 3448 §6.3.1 — derived from the receive rate via the inverted
    throughput equation).  Only effective while no closed interval
    exists. *)

val reseed : t -> float -> unit
(** Handover re-seed: outstanding holes and the open loss event are
    forgotten (they belong to the old path) and the closed-interval
    history is replaced by the single synthetic interval [len]
    (packets), so {!loss_event_rate} becomes [1/len].  [len <= 0.0]
    clears the history entirely ([p] returns to 0 until the next loss
    event).  Sequence tracking is unaffected: the flow's numbering
    continues across the migration. *)

val loss_event_rate : t -> float
(** Current loss event rate [p]; 0.0 until the first loss event. *)

val mean_interval : t -> float
(** The weighted average loss interval (packets); [infinity] before any
    loss event. *)

val loss_events : t -> int
(** Number of loss events recorded so far. *)

val losses : t -> int
(** Individual packets declared lost. *)

val congestion_marks : t -> int
(** ECN CE signals accounted via {!on_congestion_mark}. *)

val packets_seen : t -> int
(** Non-retransmitted packets accounted via [on_packet]. *)

val max_seq : t -> Packet.Serial.t option
(** Highest sequence number seen. *)

val closed_intervals : t -> float list
(** Most recent first; exposed for tests and the estimator-fidelity
    experiment. *)

val open_interval : t -> float
(** Packets since the start of the current loss event (0 before any). *)

val holes_held : t -> int
(** Hole runs currently tracked — introspection for the adversarial
    fragmentation tests. *)
