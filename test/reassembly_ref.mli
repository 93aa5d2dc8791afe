(** Frozen hashtable reference implementation of in-order delivery, the
    [Sack.Reassembly] module that {!Sack.Rcv_tracker}'s delivery
    replaced, kept as the differential-testing oracle for it.

    Receiver-side in-order delivery buffer.

    Segments arrive out of order; the application wants a byte/segment
    stream.  Under full reliability the buffer simply waits for holes to
    be repaired.  Under partial/no reliability, the sender's forward
    point ({!Packet.Header.data}[.fwd_point]) authorises skipping holes:
    buffered segments beyond an abandoned hole are delivered and the gap
    is reported. *)

type t

val create :
  ?cost:Stats.Cost.t ->
  deliver:(seq:Packet.Serial.t -> size:int -> unit) ->
  on_gap:(skipped:int -> unit) ->
  unit ->
  t

val on_data : t -> seq:Packet.Serial.t -> size:int -> unit
(** Buffer (or immediately deliver) one segment.  Duplicates are
    dropped. *)

val apply_fwd_point : t -> Packet.Serial.t -> unit
(** Abandon holes below the forward point, releasing buffered segments
    behind them. *)

val next_expected : t -> Packet.Serial.t

val delivered : t -> int
(** Segments handed to the application. *)

val skipped : t -> int
(** Sequence numbers abandoned via forward points. *)

val buffered : t -> int
(** Segments currently held waiting for a hole. *)
