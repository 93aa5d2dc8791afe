module Serial = Packet.Serial

type side = S_sender | S_receiver

type infer = I_dupthresh | I_timeout

type drop_reason = D_loss | D_queue | D_cut

type t =
  | Seg_send of { seq : Serial.t; size : int; retx : bool }
  | Seg_recv of { seq : Serial.t; size : int; ce : bool; retx : bool }
  | Sack_sent of { cum_ack : Serial.t; blocks : int; x_recv : float }
  | Sack_rcvd of {
      cum_ack : Serial.t;
      blocks : int;
      acked : int;
      sacked : int;
      lost : int;
    }
  | Fb_sent of { x_recv : float; p : float }
  | Fb_rcvd of { x_recv : float; p : float }
  | Loss_event of { side : side; events : int; p : float }
  | Loss_inferred of { seq : Serial.t; by : infer }
  | Rate_change of {
      x_bps : float;
      x_calc_bps : float;
      x_recv_bps : float;
      p : float;
      slow_start : bool;
    }
  | Rtt_sample of { sample : float; srtt : float }
  | Retransmit of { seq : Serial.t; count : int }
  | Abandoned of { seq : Serial.t }
  | Negotiated of { plane : string; mode : string; g_bps : float }
  | Nego_failed of { reason : string }
  | Conn_state of { state : string }
  | Drop of { link : string; reason : drop_reason; size : int }
  | Tcp_send of { seq : Serial.t; retx : bool }
  | Tcp_ack_rcvd of { cum_ack : Serial.t; cwnd : float; ssthresh : float }
  | Handover of { from_path : string; to_path : string; cut : bool }

let side_str = function S_sender -> "sender" | S_receiver -> "receiver"

let infer_str = function I_dupthresh -> "dupthresh" | I_timeout -> "timeout"

let drop_str = function D_loss -> "loss" | D_queue -> "queue" | D_cut -> "cut"

let bool01 b = if b then 1 else 0

(* Canonical float rendering: OCaml's %h hexadecimal literals are a
   lossless, locale-free image of the IEEE value — equal bytes iff
   equal floats (modulo NaN payloads, which the protocols never
   produce). *)
let pp_canonical fmt ev =
  match ev with
  | Seg_send { seq; size; retx } ->
      Format.fprintf fmt "send seq=%d size=%d retx=%d" (Serial.to_int seq)
        size (bool01 retx)
  | Seg_recv { seq; size; ce; retx } ->
      Format.fprintf fmt "recv seq=%d size=%d ce=%d retx=%d"
        (Serial.to_int seq) size (bool01 ce) (bool01 retx)
  | Sack_sent { cum_ack; blocks; x_recv } ->
      Format.fprintf fmt "sack-tx cum=%d blocks=%d x_recv=%h"
        (Serial.to_int cum_ack) blocks x_recv
  | Sack_rcvd { cum_ack; blocks; acked; sacked; lost } ->
      Format.fprintf fmt "sack-rx cum=%d blocks=%d acked=%d sacked=%d lost=%d"
        (Serial.to_int cum_ack) blocks acked sacked lost
  | Fb_sent { x_recv; p } ->
      Format.fprintf fmt "fb-tx x_recv=%h p=%h" x_recv p
  | Fb_rcvd { x_recv; p } ->
      Format.fprintf fmt "fb-rx x_recv=%h p=%h" x_recv p
  | Loss_event { side; events; p } ->
      Format.fprintf fmt "loss-event side=%s n=%d p=%h" (side_str side)
        events p
  | Loss_inferred { seq; by } ->
      Format.fprintf fmt "loss-inferred seq=%d by=%s" (Serial.to_int seq)
        (infer_str by)
  | Rate_change { x_bps; x_calc_bps; x_recv_bps; p; slow_start } ->
      Format.fprintf fmt "rate x=%h x_calc=%h x_recv=%h p=%h ss=%d" x_bps
        x_calc_bps x_recv_bps p (bool01 slow_start)
  | Rtt_sample { sample; srtt } ->
      Format.fprintf fmt "rtt sample=%h srtt=%h" sample srtt
  | Retransmit { seq; count } ->
      Format.fprintf fmt "retx seq=%d count=%d" (Serial.to_int seq) count
  | Abandoned { seq } ->
      Format.fprintf fmt "abandon seq=%d" (Serial.to_int seq)
  | Negotiated { plane; mode; g_bps } ->
      Format.fprintf fmt "negotiated plane=%s mode=%s g=%h" plane mode g_bps
  | Nego_failed { reason } -> Format.fprintf fmt "nego-failed %s" reason
  | Conn_state { state } -> Format.fprintf fmt "state %s" state
  | Drop { link; reason; size } ->
      Format.fprintf fmt "drop link=%s reason=%s size=%d" link
        (drop_str reason) size
  | Tcp_send { seq; retx } ->
      Format.fprintf fmt "tcp-send seq=%d retx=%d" (Serial.to_int seq)
        (bool01 retx)
  | Tcp_ack_rcvd { cum_ack; cwnd; ssthresh } ->
      Format.fprintf fmt "tcp-ack cum=%d cwnd=%h ssthresh=%h"
        (Serial.to_int cum_ack) cwnd ssthresh
  | Handover { from_path; to_path; cut } ->
      Format.fprintf fmt "handover from=%s to=%s cut=%d" from_path to_path
        (bool01 cut)
