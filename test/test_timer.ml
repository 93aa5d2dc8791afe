(* Engine.Timer: arm/re-arm/stop semantics. *)

let test_fires () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  let t = Engine.Timer.create sim ~on_expire:(fun () -> fired := Engine.Sim.now sim :: !fired) in
  Engine.Timer.start t ~after:2.0;
  Engine.Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "fired once at 2" [ 2.0 ] !fired

let test_restart_replaces () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  let t =
    Engine.Timer.create sim ~on_expire:(fun () ->
        fired := Engine.Sim.now sim :: !fired)
  in
  Engine.Timer.start t ~after:2.0;
  ignore
    (Engine.Sim.schedule_at sim 1.0 (fun () -> Engine.Timer.start t ~after:5.0));
  Engine.Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "only the re-armed deadline fires" [ 6.0 ] !fired

let test_stop () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let t = Engine.Timer.create sim ~on_expire:(fun () -> fired := true) in
  Engine.Timer.start t ~after:1.0;
  ignore (Engine.Sim.schedule_at sim 0.5 (fun () -> Engine.Timer.stop t));
  Engine.Sim.run sim;
  Alcotest.(check bool) "stopped" false !fired

let test_is_armed_and_deadline () =
  let sim = Engine.Sim.create () in
  let t = Engine.Timer.create sim ~on_expire:ignore in
  Alcotest.(check bool) "initially disarmed" false (Engine.Timer.is_armed t);
  Engine.Timer.start t ~after:3.0;
  Alcotest.(check bool) "armed" true (Engine.Timer.is_armed t);
  Alcotest.(check (float 1e-9)) "deadline" 3.0 (Engine.Timer.deadline t);
  Engine.Sim.run sim;
  Alcotest.(check bool) "disarmed after fire" false (Engine.Timer.is_armed t);
  Alcotest.(check bool) "no deadline when disarmed" true
    (Float.equal (Engine.Timer.deadline t) infinity)

let test_rearm_in_callback () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let t_holder = ref None in
  let t =
    Engine.Timer.create sim ~on_expire:(fun () ->
        incr count;
        if !count < 5 then
          Engine.Timer.start (Option.get !t_holder) ~after:1.0)
  in
  t_holder := Some t;
  Engine.Timer.start t ~after:1.0;
  Engine.Sim.run sim;
  Alcotest.(check int) "periodic restarts" 5 !count;
  Alcotest.(check (float 1e-9)) "time" 5.0 (Engine.Sim.now sim)

let suite =
  [
    Alcotest.test_case "fires once" `Quick test_fires;
    Alcotest.test_case "restart replaces deadline" `Quick test_restart_replaces;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "is_armed/deadline" `Quick test_is_armed_and_deadline;
    Alcotest.test_case "re-arm in callback" `Quick test_rearm_in_callback;
  ]
