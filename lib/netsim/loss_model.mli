(** Per-link non-congestion loss models.

    These model wireless-style losses independent of queue state — the
    phenomenon that makes TCP collapse on wireless/multi-hop paths (§2 of
    the paper) while rate-based congestion control holds up.

    - [bernoulli p] drops each packet independently with probability [p].
    - [gilbert_elliott] is the classic two-state burst-loss chain: the
      channel alternates between a Good and a Bad state with per-packet
      transition probabilities, and drops with a state-dependent
      probability.  Expected stationary loss rate is
      [pi_b * loss_bad + pi_g * loss_good] with
      [pi_b = p_gb / (p_gb + p_bg)]. *)

type t

val none : t

val bernoulli : p:float -> rng:Engine.Rng.t -> t
(** Raises [Invalid_argument] unless [0 <= p <= 1]. *)

val gilbert_elliott :
  p_good_to_bad:float ->
  p_bad_to_good:float ->
  loss_good:float ->
  loss_bad:float ->
  rng:Engine.Rng.t ->
  t

val gilbert : loss:float -> burstiness:float -> rng:Engine.Rng.t -> t
(** The Gilbert–Elliott chain with stationary loss rate [loss]: the
    Good state never drops, the Bad state drops half its packets, and
    the state probabilities follow from [loss].  Higher [burstiness]
    lowers the Bad->Good escape probability, so losses bunch into
    longer bursts at the same stationary rate.  Raises
    [Invalid_argument] unless [0 < loss < 0.5] and
    [0 <= burstiness <= 1], and when the derived Good->Bad probability
    would exceed 1: above a third, a loss needs enough burstiness
    (0.45 needs about 0.9). *)

val custom : expected:float -> (unit -> bool) -> t
(** Arbitrary per-packet loss oracle (e.g. a time-varying regime built
    from other models); [expected] is whatever stationary rate the
    caller wants reported by {!expected_loss_rate}. *)

val drops : t -> bool
(** Roll the model for one packet; [true] means the packet is lost.
    Advances the channel state. *)

val expected_loss_rate : t -> float
(** Stationary loss probability of the model. *)
