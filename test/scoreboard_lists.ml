include Sack.Scoreboard

type cover = {
  cov_seq : Packet.Serial.t;
  cov_sent_at : float;
  cov_was_retx : bool;
}

type feedback_result = {
  newly_acked : cover list;
  newly_sacked : cover list;
  newly_lost : Packet.Serial.t list;
  cum_advanced : bool;
}

let on_feedback t ~cum_ack ~blocks ~reo_wnd =
  let cum_advanced = Packet.Serial.( > ) cum_ack (una t) in
  let acked = ref [] and sacked = ref [] and lost = ref [] in
  let push acc ~seq ~sent_at ~was_retx =
    acc := { cov_seq = seq; cov_sent_at = sent_at; cov_was_retx = was_retx }
           :: !acc
  in
  ignore
    (iter_feedback t ~cum_ack ~blocks ~reo_wnd ~on_ack:(push acked)
       ~on_sack:(push sacked)
       ~on_lost:(fun seq -> lost := seq :: !lost)
      : feedback_summary);
  {
    newly_acked = List.rev !acked;
    newly_sacked = List.rev !sacked;
    newly_lost = List.rev !lost;
    cum_advanced;
  }
