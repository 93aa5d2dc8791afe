(** {!Sack.Scoreboard} with a list-building feedback digest: the
    surface the scoreboard cases check, and compare against the
    per-entry oracle in scoreboard_ref.ml. *)

include module type of struct
  include Sack.Scoreboard
end

type cover = {
  cov_seq : Packet.Serial.t;
  cov_sent_at : float;  (** first transmission time *)
  cov_was_retx : bool;  (** was ever retransmitted *)
}
(** A sequence number newly known to have reached the receiver. *)

type feedback_result = {
  newly_acked : cover list;  (** cumulative-ack advance, ascending seq *)
  newly_sacked : cover list;  (** new SACK coverage, ascending seq *)
  newly_lost : Packet.Serial.t list;  (** fresh loss inferences, ascending *)
  cum_advanced : bool;
}

val on_feedback :
  t ->
  cum_ack:Packet.Serial.t ->
  blocks:Packet.Header.sack_block list ->
  reo_wnd:float ->
  feedback_result
(** {!Sack.Scoreboard.iter_feedback}, with what it streams collected
    into lists. *)
