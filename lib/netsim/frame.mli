(** The unit of transfer inside the network simulator.

    A frame is protocol-agnostic: queues, markers and links only look at
    [size], [flow_id] and [mark].  The transported content is an open
    (extensible) variant so each transport library attaches its own
    segments without the simulator depending on them. *)

type body = ..

type body += Raw of int  (** opaque filler traffic of the given id *)

type t = {
  uid : int;
  flow_id : int;
  size : int;  (** on-wire bytes *)
  mutable mark : Mark.t;
  mutable ect : bool;  (** ECN-capable transport (RFC 3168 ECT) *)
  mutable ce : bool;  (** congestion experienced: set by an ECN queue *)
  body : body;
}

val make : uid:int -> flow_id:int -> size:int -> ?mark:Mark.t -> body -> t

val fresh_uid : unit -> int
(** Next value of the domain's uid stream.  Every frame allocator
    (VTP and TCP endpoints, background traffic, the {!Mangler}'s
    duplicates) must draw from this one stream so that uids stay unique
    within a simulation — the packet-conservation invariant keys on
    them. *)

val copy : t -> t
(** Byte-identical clone carrying a {!fresh_uid} — an in-network
    duplicate, distinguishable from the original by uid alone. *)

val dummy : t
(** Inert zero-size frame (uid 0, flow -1) used to pad preallocated
    container slots.  Never enqueue or transmit it. *)
