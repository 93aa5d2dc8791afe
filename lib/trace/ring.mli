(** Bounded per-connection event ring.

    A bounded circular buffer of timestamped events, packed into flat
    float chunks that are allocated lazily as the ring fills (so
    short-lived flows stay small and a push allocates nothing).  When
    full, the oldest entry is overwritten and {!dropped} counts the
    eviction, so a long run keeps the newest window at O(capacity)
    memory while the canonical serialisation still states exactly how
    much history was shed (keeping digests a pure function of the
    recorded run).  {!push} is the only encoder: every event shape is
    packed by the one function that {!iter_tagged} mirrors. *)

type entry = { at : float;  (** virtual time *) ev : Event.t }

type t

val create : capacity:int -> t
(** [capacity >= 1]. *)

val push : flow:int -> t -> at:float -> Event.t -> unit
(** Append an entry, evicting the oldest when full.  [flow] is an
    integer label stored alongside the entry; the recorder uses it to
    journal every connection through one shared ring (a single
    sequential write stream stays cache-friendly where many interleaved
    rings do not) and to rebuild per-flow rings at export via
    {!iter_tagged}.  Raises [Invalid_argument] when [flow]
    is outside [\[0, 2^20)], leaving the ring unchanged. *)

val length : t -> int
(** Entries currently held (<= capacity). *)

val total : t -> int
(** Entries ever pushed. *)

val dropped : t -> int
(** Entries overwritten ([total - length]). *)

val note_dropped : t -> int -> unit
(** [note_dropped t n] accounts for [n >= 0] entries that were shed
    before they reached this ring (adds to {!total} only).  Used when
    materialising a per-flow view of a partially-evicted journal, so
    the view's {!dropped} still reports the full history shed. *)

val iter : (entry -> unit) -> t -> unit
(** Oldest to newest. *)

val iter_tagged : (int -> entry -> unit) -> t -> unit
(** Oldest to newest, with each entry's flow label. *)

val to_list : t -> entry list
(** Oldest first. *)
