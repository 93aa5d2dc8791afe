(** A VTP segment instance in flight.

    Pairs a {!Header.t} with the payload length and bookkeeping identity.
    The payload content itself is never materialised — simulations care
    about sizes and sequence numbers, not bytes; {!Header.wire_size}
    gives the bytes a segment occupies on the wire. *)

type t = {
  id : int;  (** globally unique per simulation, for tracing *)
  flow_id : int;  (** connection this segment belongs to *)
  hdr : Header.t;
  payload : int;  (** user bytes carried (0 except for [Data]) *)
}

val make : id:int -> flow_id:int -> hdr:Header.t -> payload:int -> t

val size : t -> int
(** Total on-wire bytes (header + payload). *)

val is_data : t -> bool

val seq : t -> Serial.t option

val pp : Format.formatter -> t -> unit
