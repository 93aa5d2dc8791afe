(* Mobility: the degenerate-handover differential (a self-migration
   schedule must leave the canonical trace byte-identical), frame
   conservation through [`Drain]/[`Cut] migrations, campaign
   determinism across worker counts, and the draw-position independence
   of derived handover schedules. *)

module S = Fuzz.Scenario
module E = Fuzz.Exec
module D = Fuzz.Driver

(* --- degenerate handover: byte-identical traces ------------------- *)

(* Re-selecting the already active path is a complete no-op inside
   [Netsim.Topology.apply_schedule] — no severing, no trace event, no
   policy hook.  The only residue of such a schedule is the posted
   simulation events themselves, which shift event sequence numbers
   uniformly at setup time without reordering any ties, so the
   canonical trace must match the same scenario with no schedule at
   all, byte for byte. *)
let degenerate_pair ~seed =
  let sc = S.generate_in ~band:`Handover ~seed in
  match sc.S.handover with
  | None -> Alcotest.failf "seed %d: handover band without handover" seed
  | Some ho ->
      let self =
        List.map (fun (at, _, _) -> (at, 0, `Drain)) ho.S.ho_schedule
      in
      let with_ ho_schedule =
        { sc with S.handover = Some { ho with S.ho_schedule; ho_policy = `Keep } }
      in
      (with_ self, with_ [])

let trace_digest sc =
  let report, recorder = Trace.Recorder.with_recorder (fun () -> E.run sc) in
  if not (E.passed report) then
    Alcotest.failf "scenario failed under recorder:@\n%a" E.pp_report report;
  Trace.Export.digest recorder

let test_degenerate_identical () =
  List.iter
    (fun seed ->
      let self_mig, no_sched = degenerate_pair ~seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (trace_digest no_sched) (trace_digest self_mig))
    [ 42; 77 ]

(* --- frame conservation through migrate_flow ---------------------- *)

let mk_frame i =
  Netsim.Frame.make ~uid:(Netsim.Frame.fresh_uid ()) ~flow_id:0 ~size:1000
    (Netsim.Frame.Raw i)

(* Drive raw frames through a two-path mobile while a migration fires
   mid-stream, counting injections, deliveries and drops over every
   link.  [`Drain] must lose nothing; [`Cut] may drop only what the
   severed path held, and every loss must surface through [on_drop] so
   the books balance exactly. *)
let run_conservation ~mode ~t_mig ~n_frames =
  let sim = Engine.Sim.create ~seed:7 () in
  (* Ample buffers: the post-migration path is slower, and a droptail
     overflow there would be a qdisc loss, not a migration loss. *)
  let ample () = Netsim.Qdisc.droptail ~capacity_pkts:2000 in
  let paths =
    [
      Netsim.Topology.spec ~qdisc:ample ~rate_bps:8e6 ~delay:0.005 ();
      Netsim.Topology.spec ~qdisc:ample ~rate_bps:2e6 ~delay:0.040 ();
    ]
  in
  let m = Netsim.Topology.mobile ~sim ~paths () in
  let net = Netsim.Topology.mobile_net m in
  let ep = Netsim.Topology.endpoint net 0 in
  let delivered = ref 0 and dropped = ref 0 in
  ep.Netsim.Topology.on_receiver_rx (fun _ -> incr delivered);
  List.iter
    (fun l -> Netsim.Link.on_drop l (fun _ -> incr dropped))
    net.Netsim.Topology.links;
  for i = 0 to n_frames - 1 do
    ignore
      (Engine.Sim.schedule_at sim
         (0.001 *. float_of_int i)
         (fun () -> ep.Netsim.Topology.to_receiver (mk_frame i)))
  done;
  Netsim.Topology.apply_schedule m [ (t_mig, 1, mode) ];
  Engine.Sim.run ~until:10.0 sim;
  (!delivered, !dropped)

let prop_conservation =
  QCheck.Test.make ~name:"migrate_flow conserves frames" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Engine.Rng.create ~seed in
      let n_frames = 80 + Engine.Rng.int rng 120 in
      (* Inside the injection window, so traffic straddles the move. *)
      let t_mig = 0.01 +. Engine.Rng.float rng (0.001 *. float_of_int n_frames)
      in
      let d_del, d_drop = run_conservation ~mode:`Drain ~t_mig ~n_frames in
      let c_del, c_drop = run_conservation ~mode:`Cut ~t_mig ~n_frames in
      (* Drain: make-before-break loses nothing. *)
      d_del = n_frames && d_drop = 0
      (* Cut: every frame is either delivered or accounted as dropped. *)
      && c_del + c_drop = n_frames)

let test_cut_drops_inflight () =
  (* At 8 Mb/s a 1000-byte frame serialises in 1 ms, so injecting every
     millisecond keeps the old path busy; severing it mid-stream must
     drop at least the frame on the wire — and the loss must be visible
     through [on_drop]. *)
  let delivered, dropped =
    run_conservation ~mode:`Cut ~t_mig:0.050 ~n_frames:150
  in
  Alcotest.(check bool) "cut drops in-flight frames" true (dropped > 0);
  Alcotest.(check int) "books balance" 150 (delivered + dropped)

(* --- campaign determinism across worker counts -------------------- *)

let test_jobs_determinism () =
  let seeds = [ 601; 602; 603 ] in
  let digests jobs =
    let acc = ref [] in
    let soak =
      D.run_seeds ~band:`Handover ~jobs
        ~progress:(fun seed r -> acc := (seed, D.digest r) :: !acc)
        seeds
    in
    List.iter
      (fun (f : D.found) ->
        Alcotest.failf "handover seed failed:@\n%a" E.pp_report f.D.report)
      soak.D.found;
    List.rev !acc
  in
  Alcotest.(check (list (pair int string)))
    "report digests identical at --jobs 1 and 4" (digests 1) (digests 4)

(* --- derived schedules are draw-position independent -------------- *)

(* The generator draws handover times from
   [Rng.derive rng ~key:(0x484f lxor seed)], so the schedule depends
   only on the creation seed and the key — never on how many draws the
   base generator consumed first.  This is what lets new bands extend
   the draw sequence without perturbing committed scenarios. *)
let prop_derive_position_independent =
  QCheck.Test.make ~name:"Rng.derive is independent of parent draw position"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 64))
    (fun (seed, skew) ->
      let a = Engine.Rng.create ~seed in
      let b = Engine.Rng.create ~seed in
      for _ = 1 to skew do
        ignore (Engine.Rng.bits64 b)
      done;
      let key = 0x484f lxor seed in
      let da = Engine.Rng.derive a ~key in
      let db = Engine.Rng.derive b ~key in
      let ok = ref true in
      for _ = 1 to 16 do
        if Engine.Rng.bits64 da <> Engine.Rng.bits64 db then ok := false
      done;
      !ok)

let prop_handover_band_wellformed =
  QCheck.Test.make
    ~name:"handover band is reproducible and schedules are well-formed"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let sc = S.generate_in ~band:`Handover ~seed in
      S.equal sc (S.generate_in ~band:`Handover ~seed)
      &&
      match sc.S.handover with
      | None -> false
      | Some ho ->
          let n = List.length ho.S.ho_links in
          let k = List.length ho.S.ho_schedule in
          let times = List.map (fun (at, _, _) -> at) ho.S.ho_schedule in
          n = 3
          && k >= 2 && k <= 4
          && List.sort compare times = times
          && List.for_all
               (fun at ->
                 at >= 0.15 *. sc.S.duration && at <= 0.85 *. sc.S.duration)
               times
          && List.for_all
               (fun (_, target, _) -> target >= 0 && target < n)
               ho.S.ho_schedule)

let suite =
  [
    Alcotest.test_case "degenerate schedule leaves trace byte-identical"
      `Quick test_degenerate_identical;
    QCheck_alcotest.to_alcotest prop_conservation;
    Alcotest.test_case "cut severs in-flight frames, fully accounted" `Quick
      test_cut_drops_inflight;
    Alcotest.test_case "handover campaign digests across jobs" `Slow
      test_jobs_determinism;
    QCheck_alcotest.to_alcotest prop_derive_position_independent;
    QCheck_alcotest.to_alcotest prop_handover_band_wellformed;
  ]
