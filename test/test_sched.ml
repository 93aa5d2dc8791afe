(* Cross-scheduler tests: the wheel and the heap backends of Engine.Sim
   must be observationally identical (pending-count accounting aside).

   - boundary behaviours pinned under each backend, due times past
     the wheel's tick range and a refused NaN among them;
   - qcheck differential properties replaying random scheduler programs
     under both and comparing the full firing traces byte for byte, one
     of them with due times at every wheel level and past its horizon;
   - a white-box census property over the wheel's internal accounting;
   - a determinism regression: every fuzz smoke-corpus seed must
     produce digest-identical reports under both backends. *)

let scheds = [ ("wheel", `Wheel); ("heap", `Heap) ]

(* ------------------------------------------------------------------ *)
(* Boundary behaviours, one copy per backend. *)

let test_horizon_event_fires sched () =
  let sim = Engine.Sim.create ~sched () in
  let fired = ref false in
  ignore (Engine.Sim.schedule_at sim 5.0 (fun () -> fired := true));
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "event exactly at the horizon fires" true !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.Sim.now sim)

let test_cancel_after_fire sched () =
  let sim = Engine.Sim.create ~sched () in
  let n = ref 0 in
  let h = Engine.Sim.schedule_at sim 1.0 (fun () -> incr n) in
  Engine.Sim.run sim;
  Engine.Sim.cancel sim h;
  (* The record behind [h] is recycled by the next schedule; the stale
     handle must fail its generation check rather than kill the new
     event. *)
  ignore (Engine.Sim.schedule_at sim 2.0 (fun () -> incr n));
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  Alcotest.(check int) "both events ran despite stale cancels" 2 !n

let test_past_rejected sched () =
  let sim = Engine.Sim.create ~sched () in
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         Alcotest.check_raises "past is invalid"
           (Invalid_argument "Sim.schedule_at: time 1 is before now 2")
           (fun () -> ignore (Engine.Sim.schedule_at sim 1.0 ignore))));
  Engine.Sim.run sim

let test_horizon_reached_on_early_drain sched () =
  let sim = Engine.Sim.create ~sched () in
  ignore (Engine.Sim.schedule_at sim 1.0 ignore);
  Engine.Sim.run ~until:10.0 sim;
  Alcotest.(check (float 1e-9))
    "clock lands on horizon after queue empties" 10.0 (Engine.Sim.now sim)

(* The cursor carries into a new window at every level: event A sits on
   the last tick before a 32^l-tick boundary, B just past it, and A
   schedules C 100 µs later.  Draining A carries the cursor across the
   boundary, and B, filed at level l, must be cascaded down then, or C
   would be drained first. *)
let test_carry_every_level sched () =
  for l = 1 to 8 do
    let sim = Engine.Sim.create ~sched () in
    let log = ref [] in
    let boundary = 32.0 ** float_of_int l in
    let at_tick tick = (tick +. 0.5) *. 1e-6 in
    ignore
      (Engine.Sim.schedule_at sim
         (at_tick (boundary -. 1.0))
         (fun () ->
           log := "A" :: !log;
           ignore
             (Engine.Sim.schedule_after sim 100e-6 (fun () ->
                  log := "C" :: !log))));
    ignore
      (Engine.Sim.schedule_at sim
         (at_tick (boundary +. 5.0))
         (fun () -> log := "B" :: !log));
    Engine.Sim.run sim;
    Alcotest.(check (list string))
      (Printf.sprintf "order across the level-%d boundary" l)
      [ "A"; "B"; "C" ] (List.rev !log)
  done

(* Due times past the wheel's tick range: 5e12 s lies past its 2^45
   ticks of horizon, 1e300 s and infinity past the int range, and an
   event at 2 s schedules one more 1e299 s later.  Both backends must
   fire them in time order, so the clock never runs backwards.  A NaN
   time compares false both ways: it is refused, and an event already
   due at 1 s still fires. *)
let far_future_trace sched =
  let sim = Engine.Sim.create ~sched () in
  let log = ref [] in
  let note name () =
    log := Printf.sprintf "%s@%g" name (Engine.Sim.now sim) :: !log
  in
  List.iter
    (fun (name, time) -> ignore (Engine.Sim.schedule_at sim time (note name)))
    [
      ("a", 5e12);
      ("b", 1e300);
      ("c", Float.infinity);
      ("d", Float.infinity);
    ];
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         note "e" ();
         ignore (Engine.Sim.schedule_after sim 1e299 (note "f"))));
  Engine.Sim.run sim;
  List.rev !log

let test_far_future_and_nan () =
  List.iter
    (fun (name, sched) ->
      Alcotest.(check (list string))
        (Printf.sprintf "time order past the tick range [%s]" name)
        [ "e@2"; "a@5e+12"; "f@1e+299"; "b@1e+300"; "c@inf"; "d@inf" ]
        (far_future_trace sched);
      let sim = Engine.Sim.create ~sched () in
      let fired = ref false in
      ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> fired := true));
      (match Engine.Sim.schedule_at sim Float.nan ignore with
      | _ -> Alcotest.failf "NaN time accepted [%s]" name
      | exception Invalid_argument _ -> ());
      Engine.Sim.run ~until:5.0 sim;
      Alcotest.(check bool)
        (Printf.sprintf "event at 1 s fired [%s]" name)
        true !fired)
    scheds

(* ------------------------------------------------------------------ *)
(* Differential property.  A program is a list of (tag, arg) pairs —
   integers so qcheck can shrink both the list and the elements —
   decoded into schedule_at / schedule_after / cancel / step /
   run ~until operations.  Delays are divisions by primes, giving due
   times with awkward binary fractions that stress the wheel's 1 µs
   tick quantisation.  The trace records every firing (id and clock)
   plus the final clock and executed count; both backends must produce
   it byte-identically. *)

let run_trace ~sched prog =
  let buf = Buffer.create 256 in
  let sim = Engine.Sim.create ~sched () in
  let handles = ref [] in
  let next_id = ref 0 in
  let note id () =
    Buffer.add_string buf
      (Printf.sprintf "%d@%.17g;" id (Engine.Sim.now sim))
  in
  let delay prime a = float_of_int a /. float_of_int prime in
  List.iter
    (fun (tag, a) ->
      match tag mod 5 with
      | 0 ->
          let id = !next_id in
          incr next_id;
          handles :=
            Engine.Sim.schedule_at sim
              (Engine.Sim.now sim +. delay 97 a)
              (note id)
            :: !handles
      | 1 ->
          let id = !next_id in
          incr next_id;
          handles :=
            Engine.Sim.schedule_after sim (delay 89 a) (note id) :: !handles
      | 2 -> (
          match !handles with
          | [] -> ()
          | l -> Engine.Sim.cancel sim (List.nth l (a mod List.length l)))
      | 3 -> ignore (Engine.Sim.step sim : bool)
      | _ ->
          Engine.Sim.run ~until:(Engine.Sim.now sim +. delay 83 a) sim)
    prog;
  Engine.Sim.run sim;
  Buffer.add_string buf
    (Printf.sprintf "end@%.17g#%d" (Engine.Sim.now sim)
       (Engine.Sim.executed sim));
  Buffer.contents buf

let arb_program = QCheck.(list (pair small_nat small_nat))

let prop_differential =
  QCheck.Test.make ~count:300 ~name:"random programs: wheel trace = heap trace"
    arb_program (fun prog ->
      String.equal (run_trace ~sched:`Wheel prog) (run_trace ~sched:`Heap prog))

(* Far levels.  Delays of the random programs above are about a second
   at most, so they file at wheel levels 0 to 3 only.  Here element
   [(level, m)] is a delay of [(m + 1) / 7] level-[level] slots, one
   slot spanning 32^level ticks of 1 µs, for levels 0 to 9: level 9
   lies past the 2^45-tick horizon, in the overflow bucket.  Even
   elements are scheduled up front; each firing schedules the next odd
   one, so far slots are filed at many cursor positions and cascade
   down through every level. *)
let far_trace ~sched prog =
  let buf = Buffer.create 256 in
  let sim = Engine.Sim.create ~sched () in
  let prog = Array.of_list prog in
  let delay i =
    let level, m = prog.(i) in
    float_of_int ((m mod 50) + 1)
    /. 7.0
    *. (32.0 ** float_of_int (level mod 10))
    *. 1e-6
  in
  let next_odd = ref 1 in
  let rec note id () =
    Buffer.add_string buf
      (Printf.sprintf "%d@%.17g;" id (Engine.Sim.now sim));
    if !next_odd < Array.length prog then begin
      let i = !next_odd in
      next_odd := i + 2;
      ignore (Engine.Sim.schedule_after sim (delay i) (note i))
    end
  in
  Array.iteri
    (fun i _ ->
      if i mod 2 = 0 then
        ignore (Engine.Sim.schedule_after sim (delay i) (note i)))
    prog;
  Engine.Sim.run sim;
  Buffer.add_string buf
    (Printf.sprintf "end@%.17g#%d" (Engine.Sim.now sim)
       (Engine.Sim.executed sim));
  Buffer.contents buf

let prop_far_levels =
  QCheck.Test.make ~count:200
    ~name:"every level and the overflow: wheel trace = heap trace"
    arb_program (fun prog ->
      String.equal (far_trace ~sched:`Wheel prog) (far_trace ~sched:`Heap prog))

(* ------------------------------------------------------------------ *)
(* White-box census: after every operation on a bare wheel, events held
   in buckets plus live events staged in the ready heap must equal the
   advertised size, and [length] must equal the number of live events
   we put in. *)

let fresh_ev time seq =
  let ev = Engine.Event.make_dummy () in
  ev.Engine.Event.time <- time;
  ev.Engine.Event.seq <- seq;
  ev.Engine.Event.live <- true;
  ev

(* [take] removes only the live event [peek] returned: another event,
   or that one cancelled since, is refused; an empty wheel peeks a
   record that is not live. *)
let test_take_checks () =
  let w = Engine.Wheel.create () in
  Alcotest.(check bool)
    "empty: sentinel is not live" false
    (Engine.Wheel.peek w).Engine.Event.live;
  let a = fresh_ev 1.0 0 and b = fresh_ev 2.0 1 in
  Engine.Wheel.add w a;
  Engine.Wheel.add w b;
  let refused =
    Invalid_argument "Engine.Wheel.take: not the event peek returned"
  in
  Alcotest.(check bool) "peek is a" true (Engine.Wheel.peek w == a);
  Alcotest.check_raises "b is not the head" refused (fun () ->
      Engine.Wheel.take w b);
  a.Engine.Event.live <- false;
  Alcotest.check_raises "a was cancelled" refused (fun () ->
      Engine.Wheel.take w a);
  ignore (Engine.Wheel.remove w a : bool);
  Alcotest.(check bool) "peek skips the corpse" true (Engine.Wheel.peek w == b);
  Engine.Wheel.take w b;
  Alcotest.(check int) "empty" 0 (Engine.Wheel.length w)

let prop_census =
  QCheck.Test.make ~count:200 ~name:"wheel census invariant under random ops"
    arb_program (fun prog ->
      let w = Engine.Wheel.create () in
      let live = ref [] in
      let seq = ref 0 in
      let check () =
        let buckets, ready_live, size, _cursor = Engine.Wheel.census w in
        if buckets + ready_live <> size then
          QCheck.Test.fail_reportf
            "census out of balance: buckets %d + ready %d <> size %d" buckets
            ready_live size;
        if Engine.Wheel.length w <> List.length !live then
          QCheck.Test.fail_reportf "length %d <> live model %d"
            (Engine.Wheel.length w) (List.length !live);
        true
      in
      List.for_all
        (fun (tag, a) ->
          (match tag mod 4 with
          | 0 | 1 ->
              let ev = fresh_ev (float_of_int a /. 97.0) !seq in
              incr seq;
              Engine.Wheel.add w ev;
              live := ev :: !live
          | 2 -> (
              match !live with
              | [] -> ()
              | l ->
                  let ev = List.nth l (a mod List.length l) in
                  ev.Engine.Event.live <- false;
                  ignore (Engine.Wheel.remove w ev : bool);
                  live := List.filter (fun e -> e != ev) !live)
          | _ -> (
              match Engine.Wheel.pop_min w with
              | None -> ()
              | Some ev -> live := List.filter (fun e -> e != ev) !live));
          check ())
        prog)

(* ------------------------------------------------------------------ *)
(* Determinism regression: the 25-seed fuzz smoke corpus replayed under
   each backend; the rendered reports must digest identically. *)

let digest_report ~sched seed =
  let sc = Fuzz.Scenario.generate ~seed in
  let report = Fuzz.Exec.run ~sched sc in
  Digest.to_hex (Digest.string (Format.asprintf "%a" Fuzz.Exec.pp_report report))

let test_fuzz_corpus_digests () =
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d report digest" seed)
        (digest_report ~sched:`Heap seed)
        (digest_report ~sched:`Wheel seed))
    Fuzz.Driver.smoke_corpus

let suite =
  List.concat_map
    (fun (name, sched) ->
      [
        Alcotest.test_case
          (Printf.sprintf "event at horizon fires [%s]" name)
          `Quick
          (test_horizon_event_fires sched);
        Alcotest.test_case
          (Printf.sprintf "cancel after fire is a no-op [%s]" name)
          `Quick
          (test_cancel_after_fire sched);
        Alcotest.test_case
          (Printf.sprintf "past scheduling rejected [%s]" name)
          `Quick (test_past_rejected sched);
        Alcotest.test_case
          (Printf.sprintf "horizon reached on early drain [%s]" name)
          `Quick
          (test_horizon_reached_on_early_drain sched);
        Alcotest.test_case
          (Printf.sprintf "carry into every level [%s]" name)
          `Quick
          (test_carry_every_level sched);
      ])
    scheds
  @ [
      QCheck_alcotest.to_alcotest prop_differential;
      QCheck_alcotest.to_alcotest prop_far_levels;
      QCheck_alcotest.to_alcotest prop_census;
      Alcotest.test_case "take checks the peeked event" `Quick
        test_take_checks;
      Alcotest.test_case "far-future times in order, NaN refused" `Quick
        test_far_future_and_nan;
      Alcotest.test_case "fuzz smoke corpus digests (wheel = heap)" `Quick
        test_fuzz_corpus_digests;
    ]
