(* Packet.Header / Segment: size accounting and helpers. *)

module H = Packet.Header
module S = Packet.Serial

let data =
  H.Data
    {
      seq = S.of_int 9;
      tstamp = 1.0;
      rtt_estimate = 0.1;
      is_retransmit = false;
      fwd_point = S.zero;
    }

let test_wire_size_data () =
  Alcotest.(check int) "data + payload"
    (H.data_header_bytes + 1200)
    (H.wire_size data ~payload:1200)

let test_wire_size_sack_scales_with_blocks () =
  let mk n =
    H.Sack_feedback
      {
        cum_ack = S.zero;
        blocks =
          List.init n (fun i ->
              {
                H.block_start = S.of_int (10 * i);
                block_end = S.of_int ((10 * i) + 5);
              });
        sack_tstamp_echo = 0.0;
        sack_t_delay = 0.0;
        sack_x_recv = 0.0;
        sack_ce_count = 0;
      }
  in
  let s0 = H.wire_size (mk 0) ~payload:0 in
  let s3 = H.wire_size (mk 3) ~payload:0 in
  Alcotest.(check int) "8 bytes per block" (s0 + 24) s3

(* The on-wire layout in bytes (see header.ml): a 4-byte common prefix,
   then data 25 + payload, feedback 36, SACK 33 + 8 per block,
   handshake 3 + payload. *)
let test_wire_size_literals () =
  let sack n =
    H.Sack_feedback
      {
        cum_ack = S.zero;
        blocks =
          List.init n (fun i ->
              {
                H.block_start = S.of_int (10 * i);
                block_end = S.of_int ((10 * i) + 5);
              });
        sack_tstamp_echo = 0.0;
        sack_t_delay = 0.0;
        sack_x_recv = 0.0;
        sack_ce_count = 0;
      }
  in
  let fb =
    H.Feedback
      {
        tstamp_echo = 0.0;
        t_delay = 0.0;
        x_recv = 0.0;
        p = 0.0;
        recv_seq = S.zero;
      }
  in
  Alcotest.(check int) "data" (29 + 1200) (H.wire_size data ~payload:1200);
  Alcotest.(check int) "data, empty" 29 (H.wire_size data ~payload:0);
  Alcotest.(check int) "feedback" 40 (H.wire_size fb ~payload:0);
  Alcotest.(check int) "feedback_bytes" 40 H.feedback_bytes;
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "sack, %d blocks" n)
        (37 + (8 * n))
        (H.wire_size (sack n) ~payload:0);
      Alcotest.(check int)
        (Printf.sprintf "sack_feedback_bytes ~blocks:%d" n)
        (37 + (8 * n))
        (H.sack_feedback_bytes ~blocks:n))
    [ 0; 1; 3; 4 ];
  Alcotest.(check int) "handshake" (7 + 5)
    (H.wire_size (H.Handshake { kind = H.Syn; payload = "hello" }) ~payload:0);
  Alcotest.(check int) "handshake, empty" 7
    (H.wire_size (H.Handshake { kind = H.Close; payload = "" }) ~payload:0)

let test_seq_of () =
  Alcotest.(check (option int)) "data has seq" (Some 9)
    (Option.map S.to_int (H.seq_of data));
  let fb =
    H.Feedback
      { tstamp_echo = 0.0; t_delay = 0.0; x_recv = 0.0; p = 0.0; recv_seq = S.zero }
  in
  Alcotest.(check (option int)) "feedback has none" None
    (Option.map S.to_int (H.seq_of fb))

let test_segment_size_and_flags () =
  let seg = Packet.Segment.make ~hdr:data ~payload:1000 in
  Alcotest.(check int) "size" (H.data_header_bytes + 1000)
    (Packet.Segment.size seg);
  Alcotest.(check bool) "is data" true (Packet.Segment.is_data seg);
  Alcotest.(check (option int)) "seq" (Some 9)
    (Option.map S.to_int (Packet.Segment.seq seg))

let test_pp_smoke () =
  (* The printers must not raise and must mention the discriminating
     fields. *)
  let s = Format.asprintf "%a" H.pp data in
  Alcotest.(check bool) "mentions DATA" true (String.length s > 4)

let suite =
  [
    Alcotest.test_case "data wire size" `Quick test_wire_size_data;
    Alcotest.test_case "sack size scales" `Quick
      test_wire_size_sack_scales_with_blocks;
    Alcotest.test_case "wire size literals" `Quick test_wire_size_literals;
    Alcotest.test_case "seq_of" `Quick test_seq_of;
    Alcotest.test_case "segment helpers" `Quick test_segment_size_and_flags;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
  ]
