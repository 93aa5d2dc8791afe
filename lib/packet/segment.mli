(** A VTP segment instance in flight.

    Pairs a {!Header.t} with the payload length; the frame that carries
    it holds its identity and flow.  The payload content itself is never
    materialised — simulations care about sizes and sequence numbers,
    not bytes; {!Header.wire_size} gives the bytes a segment occupies on
    the wire. *)

type t = {
  hdr : Header.t;
  payload : int;  (** user bytes carried (0 except for [Data]) *)
}

val make : hdr:Header.t -> payload:int -> t

val size : t -> int
(** Total on-wire bytes (header + payload). *)

val is_data : t -> bool

val seq : t -> Serial.t option
