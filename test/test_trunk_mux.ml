(* Trunk.Mux: the conservation battery.  Every admitted user byte must
   come back exactly once, byte-identical, in order — checked two ways:
   independently against the feed's closed-form pattern on a clean
   link, and through the digest oracle across mangled (reordering /
   duplicating / corrupting) fuzz scenarios. *)

module M = Trunk.Mux
module S = Fuzz.Scenario
module E = Fuzz.Exec

let duration = 3.0

let drain = 20.0

(* The trunk's connection on endpoint 0 of [topo], negotiated from
   [offer], with the mux attached as its source. *)
let connect mux ~sim ~topo offer =
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~source:(M.source mux)
      (Qtp.Connection.config ~initial_rtt:0.2
         (Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ())))
  in
  M.attach mux ~conn ~seg_payload:Qtp.Vtp_wire.payload;
  conn

(* One trunked QTP_AF connection over a clean dumbbell; the per-user
   delivery callback replays the feed's pattern formula against every
   delivered byte at the user's running stream offset — an oracle that
   shares nothing with the mux's internal digests. *)
let run_clean ?(audit = true) ?weights ?per_user_cap ?chunk ?period
    ?(feed_seed = 0) ~discipline ~users ~per_user () =
  let seed = 9 in
  let sim, topo =
    Experiments.Common.af_dumbbell ~seed ~n_flows:1 ~bottleneck_mbps:10.0
      ~committed_mbps:[| 5.0 |] ()
  in
  let mux =
    M.create ?weights (M.config ~discipline ~audit ?per_user_cap ~users ())
  in
  let conn = connect mux ~sim ~topo (Qtp.Profile.qtp_af ~g_bps:5e6 ()) in
  let offsets = Array.make users 0 in
  let pattern_errors = ref 0 in
  M.set_on_data mux (fun ~user ~buf ~pos ~len ->
      for i = 0 to len - 1 do
        let o = offsets.(user) + i in
        let want = (feed_seed + (user * 131) + (o * 31)) land 0xff in
        if Char.code (Bytes.get buf (pos + i)) <> want then
          incr pattern_errors
      done;
      offsets.(user) <- offsets.(user) + len);
  ignore
    (M.feed mux ~sim ~seed:feed_seed ?chunk ?period
       ~workloads:(Array.make users per_user)
       ~stop_at:duration ());
  Engine.Sim.run ~until:duration sim;
  Qtp.Connection.close conn;
  Engine.Sim.run ~until:(duration +. drain) sim;
  (mux, !pattern_errors)

let check_clean ~label ?audit ?weights ?per_user_cap ?chunk ?period
    ?feed_seed ~discipline ~users ~per_user () =
  let mux, pattern_errors =
    run_clean ?audit ?weights ?per_user_cap ?chunk ?period ?feed_seed
      ~discipline ~users ~per_user ()
  in
  Alcotest.(check int) (label ^ ": pattern mismatches") 0 pattern_errors;
  Alcotest.(check int) (label ^ ": junk bytes") 0 (M.junk_bytes mux);
  (match M.check_conservation mux with
  | Ok () -> ()
  | Error what -> Alcotest.failf "%s: conservation: %s" label what);
  for u = 0 to users - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: user %d delivered = shipped" label u)
      (M.shipped_bytes mux ~user:u)
      (M.delivered_bytes mux ~user:u);
    if M.backlog_user mux ~user:u = 0 then
      Alcotest.(check int)
        (Printf.sprintf "%s: user %d shipped everything admitted" label u)
        (M.admitted_bytes mux ~user:u)
        (M.shipped_bytes mux ~user:u)
  done;
  mux

let test_clean_drr () =
  ignore
    (check_clean ~label:"drr" ~discipline:Trunk.Sched.Drr ~users:8
       ~per_user:40_000 ())

let test_clean_fifo () =
  ignore
    (check_clean ~label:"fifo" ~discipline:Trunk.Sched.Fifo ~users:8
       ~per_user:40_000 ())

let test_clean_unaudited () =
  (* The bench configuration: digests off, byte counts still exact —
     and the external pattern oracle still covers byte identity. *)
  ignore
    (check_clean ~label:"unaudited" ~audit:false ~discipline:Trunk.Sched.Drr
       ~users:8 ~per_user:40_000 ())

let test_weighted_shares () =
  (* Every user continuously backlogged (workloads far exceed what g
     can carry in [duration]); weighted DRR must hand out deliveries
     close to the 4:1 weight ratio. *)
  let weights = [| 4; 1; 1; 1 |] in
  (* Admission must outpace each user's trunk share or no backlog ever
     forms and DRR degenerates to serve-on-arrival: 16 KiB every 5 ms
     offers ~3 MB/s per user against a ~160 KB/s fair share. *)
  let mux =
    check_clean ~label:"weighted" ~weights ~chunk:16384 ~period:0.005
      ~discipline:Trunk.Sched.Drr ~users:4 ~per_user:2_000_000 ()
  in
  let d u = float_of_int (M.delivered_bytes mux ~user:u) in
  let others = (d 1 +. d 2 +. d 3) /. 3.0 in
  let ratio = d 0 /. others in
  Alcotest.(check bool)
    (Printf.sprintf "weight-4 user gets ~4x (got %.2fx)" ratio)
    true
    (ratio > 3.2 && ratio < 4.8)

let test_ring_wrap_and_phase () =
  (* A cap that is not a power of two leaves the admission ring slack
     past the cap, so offers topped up to the free space keep landing
     across the wrap point.  A chunk above the cap makes every offer
     the free space itself.  A fed seed above 255 checks the feed
     table's phase against the closed form. *)
  ignore
    (check_clean ~label:"wrap" ~per_user_cap:5000 ~chunk:6000 ~period:0.005
       ~feed_seed:1000 ~discipline:Trunk.Sched.Drr ~users:8
       ~per_user:60_000 ());
  (* Offers of 1500 bytes every 5 ms outpace each user's share, so the
     backlog outgrows a ring that already wraps. *)
  ignore
    (check_clean ~label:"grow-wrapped" ~per_user_cap:5000 ~chunk:1500
       ~period:0.005 ~feed_seed:777 ~discipline:Trunk.Sched.Fifo ~users:8
       ~per_user:60_000 ())

(* A goodput tap installed before the trunk's demultiplex tap sees every
   delivery, and the demultiplexer still gets each one after it. *)
let test_tap_before_demux () =
  let sim, topo =
    Experiments.Common.af_dumbbell ~seed:9 ~n_flows:1 ~bottleneck_mbps:10.0
      ~committed_mbps:[| 5.0 |] ()
  in
  let users = 4 in
  let mux = M.create (M.config ~users ()) in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~source:(M.source mux)
      (Qtp.Connection.config ~initial_rtt:0.2
         (Qtp.Profile.agreed_exn
            (Qtp.Profile.qtp_af ~g_bps:5e6 ())
            (Qtp.Profile.anything ())))
  in
  let tap = Experiments.Common.tap_goodput ~sim conn in
  M.attach mux ~conn ~seg_payload:Qtp.Vtp_wire.payload;
  ignore
    (M.feed mux ~sim ~workloads:(Array.make users 40_000) ~stop_at:duration
       ());
  Engine.Sim.run ~until:duration sim;
  Qtp.Connection.close conn;
  Engine.Sim.run ~until:(duration +. drain) sim;
  let delivered = Qtp.Connection.delivered conn in
  Alcotest.(check bool) "delivered" true (delivered > 0);
  Alcotest.(check int) "tap count" delivered (Stats.Series.count tap);
  Alcotest.(check int) "tap total"
    (Stats.Series.total_bytes (Qtp.Connection.goodput conn))
    (Stats.Series.total_bytes tap);
  for u = 0 to users - 1 do
    Alcotest.(check int)
      (Printf.sprintf "user %d delivered = shipped" u)
      (M.shipped_bytes mux ~user:u)
      (M.delivered_bytes mux ~user:u)
  done

(* --- bounded segment window over long runs ------------------------ *)

(* A 16-user trunk over an 80 Mb/s path that drops 2% of its segments;
   the AF floor [g] holds the rate up despite the loss, so 20 simulated
   seconds pack tens of thousands of segments with hundreds in flight.
   The in-flight count (packed, not yet delivered or skipped) is
   sampled every 5 ms. *)
let long_run offer =
  let sim, topo =
    Experiments.Common.lossy_path ~seed:21 ~rate_mbps:80.0
      ~loss:(Experiments.Common.bernoulli 0.02) ()
  in
  let users = 16 in
  let mux = M.create (M.config ~users ()) in
  let conn = connect mux ~sim ~topo offer in
  let seconds = 20.0 in
  ignore
    (M.feed mux ~sim ~chunk:16384 ~period:0.01
       ~workloads:(Array.make users 4_000_000)
       ~stop_at:seconds ());
  let peak = ref 0 in
  let rec sample () =
    let held =
      M.segments_packed mux - Qtp.Connection.delivered conn
      - Qtp.Connection.skipped conn
    in
    if held > !peak then peak := held;
    if Engine.Sim.now sim < seconds then Engine.Sim.post_after sim 0.005 sample
  in
  Engine.Sim.post_after sim 0.0 sample;
  Engine.Sim.run ~until:seconds sim;
  Qtp.Connection.close conn;
  Engine.Sim.run ~until:(seconds +. drain) sim;
  (mux, conn, !peak)

let check_bounded ~label mux ~peak =
  let slots = M.window_slots mux and packed = M.segments_packed mux in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d segments packed" label packed)
    true (packed >= 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d window slots, at most 4x the %d in flight"
       label slots peak)
    true
    (slots <= Stdlib.max 64 (4 * peak));
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d window slots, far below %d packed" label slots
       packed)
    true
    (slots * 20 <= packed)

let test_window_bounded_full () =
  let mux, conn, peak = long_run (Qtp.Profile.qtp_af ~g_bps:40e6 ()) in
  check_bounded ~label:"full" mux ~peak;
  Alcotest.(check bool)
    "full: lossy path forced retransmissions" true
    (Qtp.Connection.retransmissions conn > 0);
  match M.check_conservation mux with
  | Ok () -> ()
  | Error what -> Alcotest.failf "full: conservation: %s" what

let test_window_bounded_partial () =
  (* One retransmission within 100 ms, then the receiver skips the
     hole: the window must release skipped ordinals on the next
     delivery rather than hold them forever. *)
  let offer =
    {
      (Qtp.Profile.qtp_af ~g_bps:40e6 ()) with
      Qtp.Capabilities.reliability = [ Qtp.Capabilities.R_partial ];
      partial_max_retx = 1;
      partial_deadline = 0.1;
    }
  in
  let mux, conn, peak = long_run offer in
  check_bounded ~label:"partial" mux ~peak;
  Alcotest.(check bool)
    (Printf.sprintf "partial: receiver skipped (%d)"
       (Qtp.Connection.skipped conn))
    true
    (Qtp.Connection.skipped conn > 0);
  Alcotest.(check int) "partial: junk" 0 (M.junk_bytes mux);
  for u = 0 to M.users mux - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "partial: user %d delivered <= shipped" u)
      true
      (M.delivered_bytes mux ~user:u <= M.shipped_bytes mux ~user:u)
  done

(* --- conservation through mangled links --------------------------- *)

let test_mangled_conservation () =
  (* Walk the trunk fuzz band until a handful of scenarios with active
     manglers have run: each must pass every oracle (the exec already
     compares per-user digests at all three stations), parse zero junk,
     and deliver exactly what it shipped; across the set, reordering /
     duplication / corruption must actually have fired. *)
  let faults = ref 0 and exercised = ref 0 and seed = ref 501 in
  while !faults < 4 && !seed < 601 do
    let sc = S.generate_in ~band:`Trunk ~seed:!seed in
    if Netsim.Mangler.is_active sc.S.mangle then begin
      incr faults;
      let r = E.run sc in
      if not (E.passed r) then
        Alcotest.failf "trunk seed %d failed:@\n%a" !seed E.pp_report r;
      let m = r.E.mangled in
      exercised :=
        !exercised + m.Netsim.Mangler.reordered + m.Netsim.Mangler.duplicated
        + m.Netsim.Mangler.corrupted;
      match r.E.trunk with
      | None -> Alcotest.failf "trunk seed %d: no trunk stats" !seed
      | Some tk ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: junk" !seed)
            0 tk.E.tk_junk;
          Alcotest.(check int)
            (Printf.sprintf "seed %d: delivered = shipped" !seed)
            tk.E.tk_shipped tk.E.tk_delivered
    end;
    incr seed
  done;
  Alcotest.(check int) "found 4 mangled trunk scenarios" 4 !faults;
  Alcotest.(check bool)
    (Printf.sprintf "manglers actually fired (%d events)" !exercised)
    true (!exercised > 0)

let suite =
  [
    Alcotest.test_case "clean link: DRR delivers the pattern" `Quick
      test_clean_drr;
    Alcotest.test_case "clean link: FIFO delivers the pattern" `Quick
      test_clean_fifo;
    Alcotest.test_case "audit off: counts still conserved" `Quick
      test_clean_unaudited;
    Alcotest.test_case "weighted DRR shares" `Quick test_weighted_shares;
    Alcotest.test_case "admission ring wraps, grows, keeps the feed phase"
      `Quick test_ring_wrap_and_phase;
    Alcotest.test_case "goodput tap before the demultiplexer" `Quick
      test_tap_before_demux;
    Alcotest.test_case "segment window bounded: full reliability" `Quick
      test_window_bounded_full;
    Alcotest.test_case "segment window bounded: partial reliability" `Quick
      test_window_bounded_partial;
    Alcotest.test_case "mangled links conserve every byte" `Slow
      test_mangled_conservation;
  ]
