(* Engine.Sim: event ordering, cancellation, horizons, tie-breaking. *)

let test_runs_in_time_order () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.Sim.schedule_at sim 3.0 (note "c"));
  ignore (Engine.Sim.schedule_at sim 1.0 (note "a"));
  ignore (Engine.Sim.schedule_at sim 2.0 (note "b"));
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_ties_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int))
    "same-time events run in scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_clock_advances () =
  let sim = Engine.Sim.create () in
  let seen = ref 0.0 in
  ignore (Engine.Sim.schedule_at sim 5.5 (fun () -> seen := Engine.Sim.now sim));
  Engine.Sim.run sim;
  Alcotest.(check (float 1e-9)) "clock at event time" 5.5 !seen

let test_schedule_after () =
  let sim = Engine.Sim.create () in
  let at = ref 0.0 in
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         ignore
           (Engine.Sim.schedule_after sim 1.5 (fun () -> at := Engine.Sim.now sim))));
  Engine.Sim.run sim;
  Alcotest.(check (float 1e-9)) "relative schedule" 3.5 !at

let test_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule_at sim 1.0 (fun () -> fired := true) in
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_cancel_idempotent () =
  let sim = Engine.Sim.create () in
  let h = Engine.Sim.schedule_at sim 1.0 ignore in
  Engine.Sim.cancel sim h;
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim

let test_past_scheduling_rejected () =
  let sim = Engine.Sim.create () in
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         Alcotest.check_raises "past is invalid"
           (Invalid_argument "Sim.schedule_at: time 1 is before now 2")
           (fun () -> ignore (Engine.Sim.schedule_at sim 1.0 ignore))));
  Engine.Sim.run sim

let test_until_horizon () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.Sim.schedule_at sim (float_of_int i) (fun () -> incr count))
  done;
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check int) "only events <= horizon" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.Sim.now sim);
  Engine.Sim.run sim;
  Alcotest.(check int) "rest run later" 10 !count

let test_step () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> incr count));
  ignore (Engine.Sim.schedule_at sim 2.0 (fun () -> incr count));
  Alcotest.(check bool) "first step" true (Engine.Sim.step sim);
  Alcotest.(check int) "one ran" 1 !count;
  Alcotest.(check bool) "second step" true (Engine.Sim.step sim);
  Alcotest.(check bool) "empty" false (Engine.Sim.step sim)

let test_cascading_events () =
  (* Events scheduling events: a chain of n self-propagating steps. *)
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 100 then ignore (Engine.Sim.schedule_after sim 0.1 chain)
  in
  ignore (Engine.Sim.schedule_at sim 0.0 (fun () -> chain ()));
  Engine.Sim.run sim;
  Alcotest.(check int) "chain length" 100 !count;
  Alcotest.(check bool)
    "clock advanced by chain" true
    (Float.abs (Engine.Sim.now sim -. 9.9) < 1e-6)

(* Firing an event allocates nothing in the engine: the wheel is
   peeked and taken once per event, with no option, closure or tuple.
   What remains is the boxed due time of the event each firing
   schedules (2 words).  1,000 self-rearming timers with spread
   periods plus one preallocated [post_after] thunk. *)
let test_fire_allocation () =
  let sim = Engine.Sim.create () in
  for i = 0 to 999 do
    let self = ref None in
    let period = 0.01 +. (1e-5 *. float_of_int i) in
    let t =
      Engine.Timer.create sim ~on_expire:(fun () ->
          match !self with
          | Some t -> Engine.Timer.start t ~after:period
          | None -> ())
    in
    self := Some t;
    Engine.Timer.start t ~after:period
  done;
  let rec tick () = Engine.Sim.post_after sim 0.001 tick in
  tick ();
  Engine.Sim.run ~until:1.0 sim;
  let events0 = Engine.Sim.executed sim and words0 = Gc.minor_words () in
  Engine.Sim.run ~until:11.0 sim;
  let words = Gc.minor_words () -. words0 in
  let events = Engine.Sim.executed sim - events0 in
  Alcotest.(check bool) "ran the timers" true (events > 600_000);
  let per_event = words /. float_of_int events in
  if per_event > 3.0 then
    Alcotest.failf "%.2f minor words per fired event (at most 3)" per_event

(* A line carries its items in flat arrays and files only its head,
   so a send and its delivery allocate what a [post_after] does: the
   boxed due time of the head's engine record (2 words), however many
   items are in flight.  1,000 items circulate on one line with a 1 s
   delay, 1 ms apart, each sent again as it is delivered. *)
let test_line_allocation () =
  let sim = Engine.Sim.create () in
  let self = ref None and delivered = ref 0 in
  let line =
    Engine.Sim.line sim ~delay:1.0 ~dummy:(ref (-1)) (fun item ->
        incr delivered;
        match !self with Some l -> Engine.Sim.send l item | None -> ())
  in
  self := Some line;
  for i = 0 to 999 do
    let item = ref i in
    Engine.Sim.post_at sim (0.001 *. float_of_int i) (fun () ->
        Engine.Sim.send line item)
  done;
  Engine.Sim.run ~until:2.0 sim;
  let delivered0 = !delivered and words0 = Gc.minor_words () in
  Engine.Sim.run ~until:12.0 sim;
  let words = Gc.minor_words () -. words0 in
  let items = !delivered - delivered0 in
  Alcotest.(check int) "1,000 in flight, each delivered once a second"
    10_000 items;
  let per_item = words /. float_of_int items in
  if per_item > 3.0 then
    Alcotest.failf "%.2f minor words per item sent and delivered (at most 3)"
      per_item

let suite =
  [
    Alcotest.test_case "time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "FIFO tie-break" `Quick test_ties_fifo;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "schedule_after" `Quick test_schedule_after;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "past rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "run ~until" `Quick test_until_horizon;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "cascading events" `Quick test_cascading_events;
    Alcotest.test_case "firing allocates at most 3 words" `Quick
      test_fire_allocation;
    Alcotest.test_case "a line allocates at most 3 words per item" `Quick
      test_line_allocation;
  ]
