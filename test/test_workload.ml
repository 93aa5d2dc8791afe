(* Workload: background injectors and the media model. *)

let collect_sink () =
  let frames = ref [] in
  let sink f = frames := f :: !frames in
  (sink, frames)

let test_poisson_rate () =
  let sim = Engine.Sim.create ~seed:111 () in
  let rng = Engine.Sim.split_rng sim in
  let sink, frames = collect_sink () in
  ignore
    (Workload.Background.poisson ~sim ~sink ~flow_id:0 ~rng ~rate_bps:8.0e5
       ~packet_size:1000 ~stop_at:20.0 ());
  Engine.Sim.run ~until:21.0 sim;
  (* 0.8 Mb/s = 100 pkt/s of 1000 B over 20 s = ~2000 packets. *)
  let n = List.length !frames in
  Alcotest.(check bool)
    (Printf.sprintf "%d ~ 2000 +- 10%%" n)
    true
    (n > 1800 && n < 2200)

(* Packet and byte counts agree with the frames, and each carries the
   flow id and the best-effort mark. *)
let test_poisson_counts () =
  let sim = Engine.Sim.create ~seed:114 () in
  let rng = Engine.Sim.split_rng sim in
  let sink, frames = collect_sink () in
  let bg =
    Workload.Background.poisson ~sim ~sink ~flow_id:7 ~rng ~rate_bps:8.0e5
      ~packet_size:1000 ~stop_at:2.0 ()
  in
  Engine.Sim.run ~until:3.0 sim;
  let n = List.length !frames in
  Alcotest.(check bool) "sent" true (n > 0);
  Alcotest.(check int) "stats agree" n (Workload.Background.packets_sent bg);
  Alcotest.(check int) "bytes" (n * 1000) (Workload.Background.bytes_sent bg);
  Alcotest.(check bool) "flow id stamped" true
    (List.for_all (fun f -> f.Netsim.Frame.flow_id = 7) !frames);
  Alcotest.(check bool) "best effort" true
    (List.for_all
       (fun f -> Netsim.Mark.equal f.Netsim.Frame.mark Netsim.Mark.Best_effort)
       !frames)

let test_poisson_stops () =
  let sim = Engine.Sim.create ~seed:112 () in
  let rng = Engine.Sim.split_rng sim in
  let sent_at = ref [] in
  let sink _ = sent_at := Engine.Sim.now sim :: !sent_at in
  ignore
    (Workload.Background.poisson ~sim ~sink ~flow_id:0 ~rng ~rate_bps:8.0e5
       ~packet_size:1000 ~stop_at:1.0 ());
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "sent before the stop" true (!sent_at <> []);
  Alcotest.(check bool) "nothing sent after it" true
    (List.for_all (fun at -> at < 1.0) !sent_at)

let test_media_rate_and_packets () =
  let sim = Engine.Sim.create ~seed:115 () in
  let rng = Engine.Sim.split_rng sim in
  let p = Workload.Media.default_params in
  let pushed = ref 0 in
  let m =
    Workload.Media.start ~sim ~rng p
      ~push:(fun n -> pushed := !pushed + n)
      ~stop_at:20.0 ()
  in
  Engine.Sim.run ~until:21.0 sim;
  Alcotest.(check bool) "frames ~ 25/s x 20s" true
    (abs (Workload.Media.frames_emitted m - 500) <= 2);
  let mean_rate = Workload.Media.mean_rate_bps p in
  let measured =
    8.0 *. float_of_int (Workload.Media.bytes_emitted m) /. 20.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.0f ~ model %.0f" measured mean_rate)
    true
    (Float.abs (measured -. mean_rate) /. mean_rate < 0.1);
  Alcotest.(check bool) "packets pushed" true (!pushed > 0)

let test_media_gop_structure () =
  (* With zero jitter the I/P size ratio is exact. *)
  let sim = Engine.Sim.create ~seed:117 () in
  let rng = Engine.Sim.split_rng sim in
  let p =
    { Workload.Media.default_params with jitter = 0.0; mean_i_bytes = 9000.0; mean_p_bytes = 3000.0 }
  in
  let sizes = ref [] in
  (* Infer per-frame bytes from deltas of the cumulative counter. *)
  let m = Workload.Media.start ~sim ~rng p ~push:(fun _ -> ()) ~stop_at:1.0 () in
  let last = ref 0 in
  let rec sample () =
    let b = Workload.Media.bytes_emitted m in
    if b > !last then begin
      sizes := (b - !last) :: !sizes;
      last := b
    end;
    if Engine.Sim.now sim < 1.0 then
      ignore (Engine.Sim.schedule_after sim 0.02 sample)
  in
  ignore (Engine.Sim.schedule_at sim 0.001 sample);
  Engine.Sim.run ~until:1.2 sim;
  let sizes = List.rev !sizes in
  (match sizes with
  | i_frame :: _ ->
      Alcotest.(check int) "first frame is an I-frame" 9000 i_frame
  | [] -> Alcotest.fail "no frames");
  Alcotest.(check bool) "P frames present" true (List.mem 3000 sizes)

let suite =
  [
    Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
    Alcotest.test_case "poisson counts" `Quick test_poisson_counts;
    Alcotest.test_case "poisson stops" `Quick test_poisson_stops;
    Alcotest.test_case "media rate" `Quick test_media_rate_and_packets;
    Alcotest.test_case "media GoP" `Quick test_media_gop_structure;
  ]
