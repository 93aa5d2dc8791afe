(* Netsim.Link: serialisation timing, queueing, loss, utilisation. *)

let frame ?(size = 1000) uid =
  Netsim.Frame.make ~uid ~flow_id:0 ~size (Netsim.Frame.Raw uid)

let make_link ?(rate_bps = 8.0e5) ?(delay = 0.1) ?loss ?(cap = 10) sim =
  Netsim.Link.create ~sim ~rate_bps ~delay
    ~qdisc:(Netsim.Qdisc.droptail ~capacity_pkts:cap)
    ?loss ()

let test_transmission_plus_propagation () =
  let sim = Engine.Sim.create () in
  (* 1000 B at 0.8 Mb/s = 10 ms serialisation; 100 ms propagation. *)
  let link = make_link sim in
  let arrivals = ref [] in
  Netsim.Link.connect link (fun f ->
      arrivals := (f.Netsim.Frame.uid, Engine.Sim.now sim) :: !arrivals);
  Netsim.Link.send link (frame 1);
  Engine.Sim.run sim;
  match !arrivals with
  | [ (1, at) ] -> Alcotest.(check (float 1e-9)) "arrival time" 0.11 at
  | _ -> Alcotest.fail "expected exactly one arrival"

let test_back_to_back_serialisation () =
  let sim = Engine.Sim.create () in
  let link = make_link sim in
  let arrivals = ref [] in
  Netsim.Link.connect link (fun f ->
      arrivals := (f.Netsim.Frame.uid, Engine.Sim.now sim) :: !arrivals);
  Netsim.Link.send link (frame 1);
  Netsim.Link.send link (frame 2);
  Engine.Sim.run sim;
  match List.rev !arrivals with
  | [ (1, t1); (2, t2) ] ->
      Alcotest.(check (float 1e-9)) "first" 0.11 t1;
      (* The second waits one serialisation slot behind the first. *)
      Alcotest.(check (float 1e-9)) "second" 0.12 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_queue_overflow_drops () =
  let sim = Engine.Sim.create () in
  let link = make_link ~cap:3 sim in
  let count = ref 0 in
  Netsim.Link.connect link (fun _ -> incr count);
  (* 1 transmitting + 3 queued = 4 survive out of 10. *)
  for i = 1 to 10 do
    Netsim.Link.send link (frame i)
  done;
  Engine.Sim.run sim;
  Alcotest.(check int) "survivors" 4 !count;
  let st = Netsim.Qdisc.stats (Netsim.Link.qdisc link) in
  Alcotest.(check int) "drops" 6 st.Netsim.Qdisc.dropped

let test_loss_model_applied () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:71 in
  let link =
    make_link ~rate_bps:8.0e7 ~delay:0.001 ~cap:10_000
      ~loss:(Netsim.Loss_model.bernoulli ~p:0.3 ~rng)
      sim
  in
  let count = ref 0 in
  Netsim.Link.connect link (fun _ -> incr count);
  let n = 5000 in
  for i = 1 to n do
    Netsim.Link.send link (frame i)
  done;
  Engine.Sim.run sim;
  let rate = 1.0 -. (float_of_int !count /. float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "loss rate %f ~ 0.3" rate)
    true
    (Float.abs (rate -. 0.3) < 0.03);
  Alcotest.(check int) "loss stat matches" (n - !count)
    (Netsim.Link.stats link).Netsim.Link.lost_frames

let test_utilisation () =
  let sim = Engine.Sim.create () in
  let link = make_link sim in
  Netsim.Link.connect link (fun _ -> ());
  (* 10 x 1000 B on 0.8 Mb/s over 1 second window: 80 kbit / 800 kbit. *)
  for i = 1 to 10 do
    Netsim.Link.send link (frame i)
  done;
  Engine.Sim.run sim;
  Alcotest.(check (float 1e-6)) "utilisation 10%" 0.1
    (Netsim.Link.utilisation link ~over:1.0)

let test_hop_count () =
  let sim = Engine.Sim.create () in
  let l1 = make_link ~delay:0.01 sim in
  let l2 = make_link ~delay:0.01 sim in
  let final = ref None in
  Netsim.Link.connect l1 (Netsim.Link.send l2);
  Netsim.Link.connect l2 (fun f -> final := Some f.Netsim.Frame.uid);
  Netsim.Link.send l1 (frame 1);
  Engine.Sim.run sim;
  Alcotest.(check (option int)) "arrived" (Some 1) !final;
  Alcotest.(check (list int)) "one delivery on each of two hops" [ 1; 1 ]
    (List.map
       (fun l -> (Netsim.Link.stats l).Netsim.Link.delivered)
       [ l1; l2 ])

let test_no_sink_fails () =
  let sim = Engine.Sim.create () in
  let link = make_link sim in
  Netsim.Link.send link (frame 1);
  Alcotest.(check bool) "delivery without sink raises" true
    (try
       Engine.Sim.run sim;
       false
     with Failure _ -> true)

let test_create_rejects_bad_values () =
  let sim = Engine.Sim.create () in
  let rejected ~rate_bps ~delay =
    match make_link ~rate_bps ~delay sim with
    | (_ : Netsim.Link.t) -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (rate_bps, delay) ->
      Alcotest.(check bool)
        (Printf.sprintf "rate %g delay %g rejected" rate_bps delay)
        true
        (rejected ~rate_bps ~delay))
    [ (0.0, 0.1); (-5.0, 0.1); (Float.nan, 0.1); (1e6, -0.01); (1e6, Float.nan) ];
  Alcotest.(check bool) "zero delay accepted" false
    (rejected ~rate_bps:1e6 ~delay:0.0)

let suite =
  [
    Alcotest.test_case "tx + propagation timing" `Quick
      test_transmission_plus_propagation;
    Alcotest.test_case "back-to-back serialisation" `Quick
      test_back_to_back_serialisation;
    Alcotest.test_case "overflow drops" `Quick test_queue_overflow_drops;
    Alcotest.test_case "loss model applied" `Quick test_loss_model_applied;
    Alcotest.test_case "utilisation" `Quick test_utilisation;
    Alcotest.test_case "hop count" `Quick test_hop_count;
    Alcotest.test_case "no sink fails" `Quick test_no_sink_fails;
    Alcotest.test_case "bad rate or delay rejected" `Quick
      test_create_rejects_bad_values;
  ]
