(** SACK blocks.

    A block is the half-open range [\[block_start, block_end)] of
    received sequence numbers ({!Packet.Header.sack_block}).  The
    receiver renders them from its runs ({!Rcv_tracker.sack_blocks});
    the sender merges them into its scoreboard. *)

type t = Packet.Header.sack_block

val make : Packet.Serial.t -> Packet.Serial.t -> t
(** @raise Invalid_argument if the range is empty. *)
