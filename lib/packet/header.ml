type sack_block = { block_start : Serial.t; block_end : Serial.t }

type data = {
  seq : Serial.t;
  tstamp : float;
  rtt_estimate : float;
  is_retransmit : bool;
  fwd_point : Serial.t;
}

type feedback = {
  tstamp_echo : float;
  t_delay : float;
  x_recv : float;
  p : float;
  recv_seq : Serial.t;
}

type sack_feedback = {
  cum_ack : Serial.t;
  blocks : sack_block list;
  sack_tstamp_echo : float;
  sack_t_delay : float;
  sack_x_recv : float;
  sack_ce_count : int;
}

type handshake_kind = Syn | Syn_ack | Ack_hs | Close | Close_ack

type handshake = { kind : handshake_kind; payload : string }

type t =
  | Data of data
  | Feedback of feedback
  | Sack_feedback of sack_feedback
  | Handshake of handshake

(* On-wire sizes in bytes.  Every segment opens with a 4-byte common
   prefix (1-byte type tag, 1 reserved byte, 16-bit checksum), then:
   - data: seq 4, tstamp 8, rtt_estimate 8, is_retransmit 1,
     fwd_point 4 — 29 bytes before the payload;
   - feedback: tstamp_echo, t_delay, x_recv and p 8 each, recv_seq 4 —
     40 bytes;
   - SACK: cum_ack 4, block count 1, 8 per block (two 4-byte edges),
     tstamp echo, t_delay and x_recv 8 each, CE count 4 — 37 bytes plus
     8 per block;
   - handshake: kind 1, payload length 2, then the payload — 7 bytes
     plus the payload. *)
let common_prefix_bytes = 4

let data_header_bytes = common_prefix_bytes + 4 + 8 + 8 + 1 + 4

let feedback_bytes = common_prefix_bytes + 8 + 8 + 8 + 8 + 4

let sack_feedback_bytes ~blocks =
  common_prefix_bytes + 4 + 1 + (8 * blocks) + 8 + 8 + 8 + 4

let wire_size t ~payload =
  match t with
  | Data _ -> data_header_bytes + payload
  | Feedback _ -> feedback_bytes
  | Sack_feedback sf -> sack_feedback_bytes ~blocks:(List.length sf.blocks)
  | Handshake h -> common_prefix_bytes + 1 + 2 + String.length h.payload

let seq_of = function
  | Data d -> Some d.seq
  | Feedback _ | Sack_feedback _ | Handshake _ -> None

let pp fmt = function
  | Data d ->
      Format.fprintf fmt "DATA(seq=%a%s)" Serial.pp d.seq
        (if d.is_retransmit then ",retx" else "")
  | Feedback f ->
      Format.fprintf fmt "FB(p=%.4f,x_recv=%.0f,seq=%a)" f.p f.x_recv
        Serial.pp f.recv_seq
  | Sack_feedback sf ->
      Format.fprintf fmt "SACK(cum=%a,blocks=%d,x_recv=%.0f)" Serial.pp
        sf.cum_ack (List.length sf.blocks) sf.sack_x_recv
  | Handshake h ->
      let kind =
        match h.kind with
        | Syn -> "SYN"
        | Syn_ack -> "SYN-ACK"
        | Ack_hs -> "ACK"
        | Close -> "CLOSE"
        | Close_ack -> "CLOSE-ACK"
      in
      Format.fprintf fmt "HS(%s,%dB)" kind (String.length h.payload)
