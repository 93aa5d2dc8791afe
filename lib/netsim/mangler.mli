(** Seeded in-network fault injection: reordering, duplication and
    corruption of frames.

    A mangler sits between a link's propagation stage and its sink
    (see {!Link.create}'s [mangler] argument).  Each frame entering is
    subjected to at most one fault, drawn deterministically from the
    mangler's own RNG stream:

    - {b corrupt}: the body is wrapped in {!Corrupted}, so no transport
      will parse it — the frame still occupies wire time and buffers
      downstream, modelling a checksum failure at the receiver;
    - {b duplicate}: a byte-identical copy with a fresh
      {!Frame.fresh_uid} follows the original immediately;
    - {b reorder}: the frame is held back until [1 + random(max_hold)]
      later frames have overtaken it (or a quiet-period flush timer
      fires, so a held frame can never be stranded when traffic stops).

    Every frame pushed in emerges exactly once (duplicates add extra
    emissions with their own uids), in an order that is a pure function
    of the RNG seed and the arrival sequence. *)

type Frame.body += Corrupted of Frame.body
      (** A damaged frame: the original body is retained for debugging
          but no receiver should recognise it. *)

type profile = {
  p_reorder : float;  (** probability a frame is held back *)
  reorder_max_hold : int;
      (** max frames that may overtake a held one (bounded reorder
          distance) *)
  p_duplicate : float;
  p_corrupt : float;
}

val none : profile
(** All probabilities zero — a transparent mangler. *)

val profile :
  ?p_reorder:float ->
  ?reorder_max_hold:int ->
  ?p_duplicate:float ->
  ?p_corrupt:float ->
  unit ->
  profile
(** Defaults: no faults, [reorder_max_hold = 3]. *)

val is_active : profile -> bool
(** At least one fault probability is positive. *)

val pp_profile : Format.formatter -> profile -> unit

type stats = {
  mutable passed : int;  (** emitted untouched, immediately *)
  mutable reordered : int;
  mutable duplicated : int;
  mutable corrupted : int;
}

type t

val create : sim:Engine.Sim.t -> rng:Engine.Rng.t -> profile -> t
(** A held frame waits at most 0.25 s when no later traffic overtakes
    it. *)

val on_duplicate : t -> (orig:Frame.t -> dup:Frame.t -> unit) -> unit
(** Observe every duplication, before either copy is emitted — the
    invariant checker uses this to register the duplicate's fresh uid as
    injected. *)

val on_corrupt : t -> (Frame.t -> unit) -> unit
(** Observe every corruption (called with the original frame, before the
    wrapped one is emitted). *)

val push : t -> emit:(Frame.t -> unit) -> Frame.t -> unit
(** Feed one frame through; [emit] receives every frame the mangler
    releases (possibly several, possibly none right now). *)

val flush : t -> unit
(** Release all held frames immediately, in hold order. *)

val held_frames : t -> int

val stats : t -> stats
