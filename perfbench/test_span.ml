(* Self-time arithmetic of the benchmark's span stack on synthetic
   nested spans, and the engine op recorder's replay. *)

open Perfbench

let names = [| "a"; "b"; "c" |]

let a = 0

let b = 1

let c = 2

(* a [0,100) holds b [10,40) and c [50,70); c holds b [55,60). *)
let nested () =
  let t = Span.create ~raw_capacity:16 names in
  Span.enter_at t ~layer:a ~flow:7 ~at:0;
  Span.enter_at t ~layer:b ~flow:7 ~at:10;
  Span.leave_at t ~at:40;
  Span.enter_at t ~layer:c ~flow:7 ~at:50;
  Span.enter_at t ~layer:b ~flow:8 ~at:55;
  Span.leave_at t ~at:60;
  Span.leave_at t ~at:70;
  Span.leave_at t ~at:100;
  t

let test_self_time () =
  let t = nested () in
  let check layer ~calls ~self =
    let name = names.(layer) in
    Alcotest.(check int) (name ^ " calls") calls (Span.calls t layer);
    Alcotest.(check int) (name ^ " self") self (Span.self_ns t layer)
  in
  check a ~calls:1 ~self:50;
  check b ~calls:2 ~self:35;
  check c ~calls:1 ~self:15;
  (* Self times partition the root span: nothing is counted twice. *)
  Alcotest.(check int)
    "self sums to the root" 100
    (Span.self_ns t a + Span.self_ns t b + Span.self_ns t c)

let test_raw_records () =
  let t = nested () in
  let first4 name expect raw =
    Alcotest.(check (array int)) name expect (Array.sub raw 0 4)
  in
  Alcotest.(check int) "spans" 4 (Span.spans t);
  first4 "parents" [| -1; 0; 0; 2 |] t.Span.raw_parent;
  first4 "layers" [| a; b; c; b |] t.Span.raw_layer;
  first4 "flows" [| 7; 7; 7; 8 |] t.Span.raw_flow;
  first4 "starts" [| 0; 10; 50; 55 |] t.Span.raw_start;
  first4 "ends" [| 100; 40; 70; 60 |] t.Span.raw_stop

let test_raw_capacity () =
  let t = Span.create ~raw_capacity:2 names in
  for i = 0 to 4 do
    Span.enter_at t ~layer:a ~flow:i ~at:(10 * i);
    Span.leave_at t ~at:((10 * i) + 3)
  done;
  Alcotest.(check int) "all calls counted" 5 (Span.calls t a);
  Alcotest.(check int) "all time counted" 15 (Span.self_ns t a);
  Alcotest.(check (array int)) "first spans kept" [| 0; 1 |] t.Span.raw_flow

let test_wrap_reraises () =
  let t = Span.create names in
  let f = Span.wrap t ~layer:c ~flow:0 (fun () -> failwith "boom") in
  Alcotest.check_raises "re-raised" (Failure "boom") f;
  Alcotest.(check int) "span closed" 0 t.Span.depth;
  Alcotest.(check int) "span counted" 1 (Span.calls t c)

let test_no_alloc () =
  let t = Span.create names in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Span.enter t ~layer:a ~flow:0;
    Span.leave t
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 10k spans" words)
    true (words < 100.0)

(* A stream with cancels, including one of an event that then never
   fires, replays to the same number of pops the simulation ran. *)
let test_replay () =
  let sim = Engine.Sim.create () in
  let ops = Oprec.create ~cap:1_000 () in
  Engine.Sim.set_tracer sim (Some (Oprec.record ops));
  let rec tick n () =
    if n > 0 then begin
      let h = Engine.Sim.schedule_after sim 0.5 ignore in
      Engine.Sim.post_after sim 0.1 (tick (n - 1));
      if n mod 3 = 0 then Engine.Sim.cancel sim h
    end
  in
  Engine.Sim.post_at sim 0.0 (tick 30);
  Engine.Sim.run sim;
  let pops, _ = Oprec.replay ops in
  Alcotest.(check int) "pops" (Engine.Sim.executed sim) pops;
  Alcotest.(check int) "cancels" 10 ops.Oprec.cancels;
  Alcotest.(check int) "ops" (Oprec.recorded ops) (Oprec.ops ops)

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "raw records" `Quick test_raw_records;
          Alcotest.test_case "raw capacity" `Quick test_raw_capacity;
          Alcotest.test_case "wrap re-raises" `Quick test_wrap_reraises;
          Alcotest.test_case "no allocation" `Quick test_no_alloc;
        ] );
      ("oprec", [ Alcotest.test_case "replay" `Quick test_replay ]);
    ]
