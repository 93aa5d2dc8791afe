(** Protocol-invariant checking over an observation stream.

    The invariant catalogue is derived from the paper and the RFCs it
    builds on:

    - {b gtfrc-floor} (paper §4, gTFRC): outside slow start the allowed
      rate never falls below [min(g, X_calc)] — the negotiated AF
      reservation stays honoured.
    - {b tfrc-rate-bounds} (RFC 3448 §4.3): [s/t_mbi <= X <=
      max(2*X_recv, g)], and never above the negotiated ceiling.
    - {b sack-wellformed} (RFC 2018 §4): feedback blocks are non-empty,
      pairwise disjoint, strictly above the cumulative ack and within
      the sequence range actually sent (a selfish or buggy receiver
      acknowledging invented data is caught here).
    - {b cum-ack-monotone}: the cumulative point never regresses.
    - {b packet-conservation}: [sent = delivered + lost + in_flight] —
      every frame accounted exactly once.

    Observations are fed live, by the experiment harness under
    [~checked:true] or by a caller tapping links directly
    ({!Netsim.Link.connect}, {!Netsim.Link.on_drop},
    {!Netsim.Mangler.on_duplicate}). *)

type event =
  | Epoch
      (** A new topology / set of connections is starting (flow ids may
          be reused); per-flow feedback state resets.  Frame uids are
          global, so packet-conservation accounting carries across
          epochs. *)
  | Rate of Qtp.Inspect.rate_sample
      (** One TFRC rate update, as {!Qtp.Inspect} reports it. *)
  | Sent of { at : float; flow : int; uid : int }
  | Delivered of { at : float; flow : int; uid : int }
  | Dropped of { at : float; flow : int; uid : int }
  | Feedback of {
      at : float;
      flow : int;
      cum_ack : int;
      blocks : (int * int) list;  (** half-open [start, end) ranges *)
      window_hi : int option;  (** one past the highest sequence sent *)
    }

type violation = {
  invariant : string;
  at : float;
  flow : int;
  detail : string;
}

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

type t

val create : unit -> t
(** A fresh checker instantiating every catalogue invariant.  At most
    100 violations are retained. *)

val feed : t -> event -> unit

val events_seen : t -> int

val violations : t -> violation list
(** In discovery order (oldest first). *)

val first_violation : t -> violation option

val check_exn : t -> unit
(** Raise {!Violation} with the first recorded violation, if any. *)
