(* The fuzz harness itself: generator determinism, executor soundness on
   known-good seeds, the checker fed from a mangled link, and the negative
   test — a deliberately-injected receiver bug must be caught and
   shrunk. *)

module S = Fuzz.Scenario
module E = Fuzz.Exec
module D = Fuzz.Driver
module Sh = Fuzz.Shrink

(* --- generator ---------------------------------------------------- *)

let test_generate_deterministic () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true
        (S.equal (S.generate ~seed) (S.generate ~seed)))
    [ 1; 42; 1000; 123456 ]

let prop_generated_in_bounds =
  QCheck.Test.make ~name:"generated scenarios stay inside bounds" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let sc = S.generate ~seed in
      sc.S.rate_mbps >= 1.0
      && sc.S.rate_mbps <= 16.0
      && sc.S.delay_ms >= 2.0
      && sc.S.delay_ms <= 80.0
      && sc.S.buffer_pkts >= 10
      && sc.S.buffer_pkts <= 120
      && sc.S.duration >= 4.0
      && sc.S.duration <= 12.0
      && S.flows sc >= 1)

(* --- executor ----------------------------------------------------- *)

let test_mini_soak () =
  List.iter
    (fun seed ->
      let r = E.run (S.generate ~seed) in
      if not (E.passed r) then
        Alcotest.failf "seed %d failed:@\n%a" seed E.pp_report r)
    [ 101; 102; 103; 104; 105 ]

let test_exec_deterministic () =
  let sc = S.generate ~seed:137 in
  let a = E.run sc in
  let b = E.run sc in
  Alcotest.(check bool) "same flow stats" true (a.E.flows = b.E.flows);
  Alcotest.(check int) "same failure count" (List.length a.E.failures)
    (List.length b.E.failures);
  Alcotest.(check bool) "same fault counts" true (a.E.mangled = b.E.mangled);
  Alcotest.(check int) "same checker traffic" a.E.checker_events
    b.E.checker_events

(* Smoke seed 119 is in the repair-arrives-once oracle's scope — one
   unmangled path, a standard-plane flow with a SACK plane — and loses
   enough to repair a hundred-odd segments; each repair must reach the
   receiver once. *)
let test_repair_arrives_once () =
  let sc = S.generate ~seed:119 in
  Alcotest.(check bool) "one unmangled path" true
    ((not (Netsim.Mangler.is_active sc.S.mangle)) && sc.S.handover = None);
  let r = E.run sc in
  if not (E.passed r) then Alcotest.failf "%a" E.pp_report r;
  Alcotest.(check bool) "repairs were sent" true
    (List.exists (fun f -> f.E.retx > 0) r.E.flows)

(* --- the checker fed from a mangled link's taps -------------------- *)

let mk_frame i =
  Netsim.Frame.make ~uid:(Netsim.Frame.fresh_uid ()) ~flow_id:0 ~size:1000
    (Netsim.Frame.Raw i)

(* Drive 200 frames over a link whose mangler duplicates aggressively,
   feeding injections, deliveries and drops straight into a fresh
   checker from the link and mangler taps.  Unless the duplicates'
   fresh uids are also fed as sent, the checker must report a
   conservation violation ("delivered but never sent"). *)
let mangled_checker ~account_dups =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:11 in
  let mangler =
    Netsim.Mangler.create ~sim ~rng
      (Netsim.Mangler.profile ~p_duplicate:0.3 ())
  in
  let checker = Analysis.Invariants.create () in
  let observe role (f : Netsim.Frame.t) =
    let at = Engine.Sim.now sim
    and flow = f.Netsim.Frame.flow_id
    and uid = f.Netsim.Frame.uid in
    Analysis.Invariants.feed checker
      (match role with
      | `Sent -> Analysis.Invariants.Sent { at; flow; uid }
      | `Delivered -> Analysis.Invariants.Delivered { at; flow; uid }
      | `Dropped -> Analysis.Invariants.Dropped { at; flow; uid })
  in
  let link =
    Netsim.Link.create ~sim ~rate_bps:8e6 ~delay:0.005
      ~qdisc:(Netsim.Qdisc.droptail ~capacity_pkts:1000)
      ~mangler ()
  in
  Netsim.Link.connect link (observe `Delivered);
  Netsim.Link.on_drop link (observe `Dropped);
  if account_dups then
    Netsim.Mangler.on_duplicate mangler (fun ~orig:_ ~dup -> observe `Sent dup);
  for i = 0 to 199 do
    ignore
      (Engine.Sim.schedule_at sim (0.002 *. float i) (fun () ->
           let f = mk_frame i in
           observe `Sent f;
           Netsim.Link.send link f))
  done;
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check bool)
    "duplicates occurred" true
    ((Netsim.Mangler.stats mangler).Netsim.Mangler.duplicated > 0);
  checker

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_trace_check_catches_unaccounted_dups () =
  let checker = mangled_checker ~account_dups:false in
  match Analysis.Invariants.first_violation checker with
  | Some v ->
      let msg = Format.asprintf "%a" Analysis.Invariants.pp_violation v in
      Alcotest.(check bool)
        "conservation violation" true
        (contains_sub ~sub:"never sent" msg)
  | None -> Alcotest.fail "expected a conservation violation"

let test_trace_replay_clean_when_dups_accounted () =
  let checker = mangled_checker ~account_dups:true in
  (match Analysis.Invariants.violations checker with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "unexpected violation: %a" Analysis.Invariants.pp_violation
        v);
  Alcotest.(check bool)
    "events were fed" true
    (Analysis.Invariants.events_seen checker > 0)

(* --- the negative test: an injected bug is caught and shrunk ------ *)

(* Hand-built so the bug has a clean trigger: full reliability (SACK on
   every data packet) plus forward-path duplication.  The padding
   (reverse mangling, background traffic) is there for the shrinker to
   strip. *)
let buggy_scenario =
  {
    S.seed = 424242;
    shape = S.Dumbbell 1;
    rate_mbps = 4.0;
    delay_ms = 10.0;
    buffer_pkts = 60;
    red = false;
    loss = S.Clean;
    mangle = Netsim.Mangler.profile ~p_duplicate:0.08 ();
    mangle_reverse = true;
    profile = S.P_full;
    workload = S.Greedy;
    background = true;
    duration = 4.0;
    handover = None;
    trunk = None;
  }

let with_bug f =
  Sack.Rcv_tracker.test_only_skip_dup_check := true;
  Fun.protect
    ~finally:(fun () -> Sack.Rcv_tracker.test_only_skip_dup_check := false)
    f

let test_injected_bug_caught () =
  Alcotest.(check bool)
    "baseline passes without the bug" true
    (E.passed (E.run buggy_scenario));
  with_bug (fun () ->
      let r = E.run buggy_scenario in
      Alcotest.(check bool) "bug detected" false (E.passed r);
      Alcotest.(check bool)
        "detected by an invariant" true
        (List.exists
           (function E.Invariant _ -> true | _ -> false)
           r.E.failures))

let test_injected_bug_shrinks () =
  with_bug (fun () ->
      let out = Sh.shrink ~still_fails:D.still_fails buggy_scenario in
      Alcotest.(check bool)
        "shrunk scenario still fails" true
        (D.still_fails out.Sh.shrunk);
      Alcotest.(check bool) "at least one simplification" true
        (out.Sh.steps >= 1);
      Alcotest.(check bool) "background stripped" false
        out.Sh.shrunk.S.background;
      Alcotest.(check bool) "reverse mangling stripped" false
        out.Sh.shrunk.S.mangle_reverse;
      (* The shrinker may even strip the injected duplication: with the
         dup check disabled, a greedy flow's own spurious
         retransmissions (congestion losses, delayed feedback) already
         deliver duplicate segments.  What must survive is the single
         flow and the full-reliability profile the bug lives in. *)
      Alcotest.(check bool)
        "single dumbbell flow" true
        (out.Sh.shrunk.S.shape = S.Dumbbell 1);
      Alcotest.(check bool)
        "full-reliability profile kept" true
        (out.Sh.shrunk.S.profile = S.P_full))

let suite =
  [
    Alcotest.test_case "generator deterministic" `Quick
      test_generate_deterministic;
    QCheck_alcotest.to_alcotest prop_generated_in_bounds;
    Alcotest.test_case "mini soak passes" `Slow test_mini_soak;
    Alcotest.test_case "executor deterministic" `Slow test_exec_deterministic;
    Alcotest.test_case "a repair arrives once" `Quick test_repair_arrives_once;
    Alcotest.test_case "trace check catches unaccounted dups" `Quick
      test_trace_check_catches_unaccounted_dups;
    Alcotest.test_case "trace replay clean when dups accounted" `Quick
      test_trace_replay_clean_when_dups_accounted;
    Alcotest.test_case "injected bug caught" `Slow test_injected_bug_caught;
    Alcotest.test_case "injected bug shrinks" `Slow test_injected_bug_shrinks;
  ]
