(* The trace library in isolation: ring eviction accounting, the
   ambient recorder registry, sink gating, canonical serialisation and
   the line diff. *)

let ev_state s = Trace.Event.Conn_state { state = s }

let test_ring_basic () =
  let r = Trace.Ring.create ~capacity:4 in
  Alcotest.(check int) "empty length" 0 (Trace.Ring.length r);
  Trace.Ring.push ~flow:0 r ~at:1.0 (ev_state "a");
  Trace.Ring.push ~flow:0 r ~at:2.0 (ev_state "b");
  Alcotest.(check int) "length" 2 (Trace.Ring.length r);
  Alcotest.(check int) "total" 2 (Trace.Ring.total r);
  Alcotest.(check int) "dropped" 0 (Trace.Ring.dropped r);
  match Trace.Ring.to_list r with
  | [ e1; e2 ] ->
      Alcotest.(check (float 0.0)) "first at" 1.0 e1.Trace.Ring.at;
      Alcotest.(check (float 0.0)) "second at" 2.0 e2.Trace.Ring.at
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

let test_ring_eviction () =
  let r = Trace.Ring.create ~capacity:3 in
  for i = 1 to 7 do
    Trace.Ring.push ~flow:0 r ~at:(float_of_int i) (ev_state (string_of_int i))
  done;
  Alcotest.(check int) "length capped" 3 (Trace.Ring.length r);
  Alcotest.(check int) "total counts evictions" 7 (Trace.Ring.total r);
  Alcotest.(check int) "dropped" 4 (Trace.Ring.dropped r);
  let ats = List.map (fun e -> e.Trace.Ring.at) (Trace.Ring.to_list r) in
  Alcotest.(check (list (float 0.0))) "newest window kept" [ 5.0; 6.0; 7.0 ] ats

let test_ring_capacity_validation () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Trace.Ring.create: capacity < 1") (fun () ->
      ignore (Trace.Ring.create ~capacity:0))

let test_recorder_ambient () =
  Alcotest.(check bool) "off before install" false (Trace.Recorder.on ());
  (* emit without a recorder: a silent no-op *)
  Trace.Recorder.emit ~flow:0 ~at:0.0 (ev_state "dropped-on-floor");
  let (), rec_ =
    Trace.Recorder.with_recorder (fun () ->
        Alcotest.(check bool) "on inside" true (Trace.Recorder.on ());
        Trace.Recorder.emit ~flow:3 ~at:1.0 (ev_state "x");
        Trace.Recorder.emit ~flow:1 ~at:2.0 (ev_state "y");
        Trace.Recorder.emit ~flow:3 ~at:3.0 (ev_state "z");
        (* a sparse id grows the per-flow counts past their last size *)
        Trace.Recorder.emit ~flow:5_000 ~at:4.0 (ev_state "far");
        Trace.Recorder.emit ~flow:3 ~at:5.0 (ev_state "w"))
  in
  Alcotest.(check bool) "off after" false (Trace.Recorder.on ());
  Alcotest.(check int) "events" 5 (Trace.Recorder.events rec_);
  Alcotest.(check (list int)) "flows ascending" [ 1; 3; 5_000 ]
    (Trace.Recorder.flows rec_);
  let total flow =
    match Trace.Recorder.ring rec_ ~flow with
    | None -> 0
    | Some ring -> Trace.Ring.total ring
  in
  Alcotest.(check (list int)) "per-flow totals" [ 0; 1; 3; 1; 0 ]
    (List.map total [ 0; 1; 3; 5_000; 5_001 ]);
  (* out-of-range ids are refused before anything is counted *)
  List.iter
    (fun flow ->
      Alcotest.check_raises
        (Printf.sprintf "flow %d refused" flow)
        (Invalid_argument "Trace.Ring.push: flow outside [0, 2^20)")
        (fun () -> Trace.Recorder.record rec_ ~flow ~at:6.0 (ev_state "bad")))
    [ -1; 1 lsl 20 ];
  Alcotest.(check int) "events unchanged" 5 (Trace.Recorder.events rec_);
  Alcotest.(check (list int)) "flows unchanged" [ 1; 3; 5_000 ]
    (Trace.Recorder.flows rec_)

(* [~flow] is a required argument down to [Ring.push], so recording
   boxes no [Some flow]; the ring's chunks are reused once it is full.
   Minor words per call over 10k calls after as many warm-up calls. *)
let test_record_allocation () =
  let r = Trace.Recorder.create ~capacity:64 () in
  let ev = ev_state "x" in
  let n = 10_000 in
  for _ = 1 to n do
    Trace.Recorder.record r ~flow:3 ~at:1.0 ev
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Trace.Recorder.record r ~flow:3 ~at:1.0 ev
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_call > 2.0 then
    Alcotest.failf "%.2f minor words per record (at most 2)" per_call

let test_recorder_clear_on_exception () =
  (try
     ignore
       (Trace.Recorder.with_recorder (fun () -> failwith "boom") : unit * _)
   with Failure _ -> ());
  Alcotest.(check bool) "cleared after exception" false (Trace.Recorder.on ())

let test_sink_gating () =
  let clock = ref 5.0 in
  let sink = Some (Trace.Sink.make ~flow:7 ~now:(fun () -> !clock)) in
  Alcotest.(check bool) "sink off without recorder" false (Trace.Sink.on sink);
  Alcotest.(check bool) "no sink is off" false (Trace.Sink.on None);
  let (), rec_ =
    Trace.Recorder.with_recorder (fun () ->
        Alcotest.(check bool) "sink on" true (Trace.Sink.on sink);
        Trace.Sink.emit sink (ev_state "a");
        clock := 6.5;
        Trace.Sink.emit sink (ev_state "b");
        Trace.Sink.emit None (ev_state "swallowed"))
  in
  match Trace.Recorder.ring rec_ ~flow:7 with
  | None -> Alcotest.fail "sink flow missing"
  | Some ring -> (
      match Trace.Ring.to_list ring with
      | [ a; b ] ->
          Alcotest.(check (float 0.0)) "sink stamped t1" 5.0 a.Trace.Ring.at;
          Alcotest.(check (float 0.0)) "sink stamped t2" 6.5 b.Trace.Ring.at
      | l -> Alcotest.failf "expected 2 sink events, got %d" (List.length l))

(* The packed codec round-trips the whole event vocabulary: every
   constructor, with the boundary values each field is packed at — the
   32-bit serial range, a 16-bit SACK block count in the tag word, both
   [Seg_recv] flags, an infinite equation rate, every drop reason and
   interned strings, one of them repeated to exercise the string
   table. *)
let every_event =
  let open Trace.Event in
  let s0 = Packet.Serial.zero and smax = Packet.Serial.of_int 0xFFFF_FFFF in
  [
    Seg_send { seq = s0; size = 1500; retx = false };
    Seg_send { seq = smax; size = 40; retx = true };
    Seg_recv { seq = smax; size = 1500; ce = true; retx = true };
    Seg_recv { seq = s0; size = 576; ce = false; retx = false };
    Sack_sent { cum_ack = smax; blocks = 3; x_recv = 1.25e6 };
    Sack_rcvd
      { cum_ack = s0; blocks = 0xFFFF; acked = 7; sacked = 2; lost = 1 };
    Fb_sent { x_recv = 5e5; p = 0.01 };
    Fb_rcvd { x_recv = 0.0; p = 1.0 };
    Loss_event { side = S_receiver; events = 1; p = 0.02 };
    Loss_event { side = S_sender; events = 9; p = 0.125 };
    Loss_inferred { seq = smax; by = I_dupthresh };
    Loss_inferred { seq = s0; by = I_timeout };
    Rate_change
      {
        x_bps = 1e6;
        x_calc_bps = Float.infinity;
        x_recv_bps = 5e5;
        p = 0.0;
        slow_start = true;
      };
    Rate_change
      {
        x_bps = 2e6;
        x_calc_bps = 3.5e6;
        x_recv_bps = 0.0;
        p = 0.003;
        slow_start = false;
      };
    Rtt_sample { sample = 0.061; srtt = 0.06 };
    Retransmit { seq = smax; count = 2 };
    Abandoned { seq = s0 };
    Negotiated { plane = "light"; mode = "partial"; g_bps = 3e6 };
    Nego_failed { reason = "no common plane" };
    Conn_state { state = "closing" };
    Drop { link = "l0"; reason = D_loss; size = 1500 };
    Drop { link = "l0"; reason = D_queue; size = 576 };
    Drop { link = "l1"; reason = D_cut; size = 1500 };
    Tcp_send { seq = smax; retx = true };
    Tcp_send { seq = s0; retx = false };
    Tcp_ack_rcvd { cum_ack = smax; cwnd = 14.5; ssthresh = 64.0 };
    Handover { from_path = "wifi"; to_path = "cellular"; cut = false };
    Handover { from_path = "cellular"; to_path = "sat"; cut = true };
    Handover { from_path = "sat"; to_path = "wifi"; cut = false };
  ]

(* The first word of an event's canonical line names its constructor. *)
let line ev = Format.asprintf "%a" Trace.Event.pp_canonical ev

let kind ev = List.hd (String.split_on_char ' ' (line ev))

let test_codec_roundtrip () =
  let kinds = List.sort_uniq String.compare (List.map kind every_event) in
  Alcotest.(check int) "all 19 constructors covered" 19 (List.length kinds);
  let r = Trace.Ring.create ~capacity:64 in
  List.iteri
    (fun i ev -> Trace.Ring.push ~flow:0 r ~at:(float_of_int i) ev)
    every_event;
  let back = List.map (fun e -> e.Trace.Ring.ev) (Trace.Ring.to_list r) in
  Alcotest.(check int) "all entries survive" (List.length every_event)
    (List.length back);
  List.iteri
    (fun i (orig, dec) ->
      Alcotest.(check bool)
        (Printf.sprintf "event %d (%s) round-trips" i (kind orig))
        true (orig = dec))
    (List.combine every_event back);
  (* Canonical bodies are injective over the vocabulary. *)
  let lines = List.map line back in
  Alcotest.(check int) "canonical lines distinct" (List.length every_event)
    (List.length (List.sort_uniq String.compare lines));
  (* The widest flow label survives beside the widest aux field. *)
  let top = (1 lsl 20) - 1 in
  let widest =
    Trace.Event.Sack_rcvd
      {
        cum_ack = Packet.Serial.of_int 0xFFFF_FFFF;
        blocks = 0xFFFF;
        acked = 1;
        sacked = 1;
        lost = 1;
      }
  in
  Trace.Ring.push ~flow:top r ~at:99.0 widest;
  let tagged = ref [] in
  Trace.Ring.iter_tagged (fun fl e -> tagged := (fl, e) :: !tagged) r;
  match !tagged with
  | (fl, e) :: _ ->
      Alcotest.(check int) "flow label 2^20 - 1" top fl;
      Alcotest.(check bool) "event beside the top label" true
        (e.Trace.Ring.ev = widest)
  | [] -> Alcotest.fail "tagged entry missing"

let test_canonical_shape () =
  let (), rec_ =
    Trace.Recorder.with_recorder (fun () ->
        Trace.Recorder.emit ~flow:0 ~at:0.25
          (Trace.Event.Rate_change
             {
               x_bps = 1e6;
               x_calc_bps = Float.infinity;
               x_recv_bps = 5e5;
               p = 0.0;
               slow_start = true;
             });
        Trace.Recorder.emit ~flow:0 ~at:0.5
          (Trace.Event.Seg_send
             { seq = Packet.Serial.zero; size = 1500; retx = false }))
  in
  let text = Trace.Export.canonical rec_ in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | magic :: flow_hdr :: _ ->
      Alcotest.(check string) "magic line" Trace.Export.magic magic;
      Alcotest.(check string) "flow header" "flow 0 events=2 dropped=0"
        flow_hdr
  | _ -> Alcotest.fail "canonical too short");
  Alcotest.(check bool) "hex float timestamps"
    true
    (List.exists
       (fun l -> String.length l > 2 && String.sub l 0 2 = "0x")
       lines);
  (* Serialisation is a pure function of the recorder. *)
  Alcotest.(check string) "stable on re-export" text
    (Trace.Export.canonical rec_);
  Alcotest.(check string) "digest = digest_of_string"
    (Trace.Export.digest rec_)
    (Trace.Export.digest_of_string text)

let test_diff () =
  let a = "# vtp-trace-1\nflow 0 events=2 dropped=0\nl1\nl2\n" in
  Alcotest.(check bool) "equal -> None" true (Trace.Export.diff a a = None);
  let b = "# vtp-trace-1\nflow 0 events=2 dropped=0\nl1\nDIFFERENT\n" in
  (match Trace.Export.diff a b with
  | Some { Trace.Export.line = 4; left = Some "l2"; right = Some "DIFFERENT" }
    ->
      ()
  | Some d ->
      Alcotest.failf "wrong divergence: line %d %a" d.Trace.Export.line
        Trace.Export.pp_divergence d
  | None -> Alcotest.fail "diff missed the mismatch");
  (* One side a strict prefix of the other. *)
  let c = "# vtp-trace-1\nflow 0 events=2 dropped=0\nl1\nl2\nl3\n" in
  match Trace.Export.diff a c with
  | Some { Trace.Export.line = 5; left = Some ""; right = Some "l3" } -> ()
  | Some d ->
      Alcotest.failf "wrong prefix divergence: %a" Trace.Export.pp_divergence d
  | None -> Alcotest.fail "diff missed the extra line"

let suite =
  [
    Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "ring capacity validated" `Quick
      test_ring_capacity_validation;
    Alcotest.test_case "recorder ambient registry" `Quick test_recorder_ambient;
    Alcotest.test_case "record allocates at most 2 words" `Quick
      test_record_allocation;
    Alcotest.test_case "recorder clears on exception" `Quick
      test_recorder_clear_on_exception;
    Alcotest.test_case "sink gating and stamping" `Quick test_sink_gating;
    Alcotest.test_case "handover/D_cut codec round-trip, every event" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "canonical shape" `Quick test_canonical_shape;
    Alcotest.test_case "diff pinpoints first divergence" `Quick test_diff;
  ]
