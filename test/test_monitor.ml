(* Netsim.Monitor: queue sampling. *)

let test_samples_occupancy () =
  let sim = Engine.Sim.create () in
  let q = Netsim.Qdisc.droptail ~capacity_pkts:100 in
  let monitor = Netsim.Monitor.start ~sim ~qdisc:q ~interval:0.1 ~until:1.05 () in
  (* Occupancy: 0 until t=0.35, then 3 packets. *)
  ignore
    (Engine.Sim.schedule_at sim 0.35 (fun () ->
         for i = 1 to 3 do
           ignore
             (Netsim.Qdisc.enqueue q ~now:0.35
                (Netsim.Frame.make ~uid:i ~flow_id:0 ~size:100
                   (Netsim.Frame.Raw i)))
         done));
  Engine.Sim.run ~until:2.0 sim;
  let samples = Netsim.Monitor.samples_pkts monitor in
  Alcotest.(check int) "10 samples" 10 (Array.length samples);
  Alcotest.(check (float 1e-9)) "early sample empty" 0.0 samples.(0);
  Alcotest.(check (float 1e-9)) "late sample full" 3.0 samples.(9);
  Alcotest.(check bool) "mean in between" true
    (let m = Netsim.Monitor.mean_pkts monitor in
     m > 0.0 && m < 3.0)

let test_times_monotone () =
  let sim = Engine.Sim.create () in
  let q = Netsim.Qdisc.droptail ~capacity_pkts:10 in
  let monitor = Netsim.Monitor.start ~sim ~qdisc:q ~interval:0.05 ~until:0.5 () in
  Engine.Sim.run ~until:1.0 sim;
  let times = Netsim.Monitor.times monitor in
  let ok = ref true in
  for i = 1 to Array.length times - 1 do
    if times.(i) <= times.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "monotone timestamps" true !ok;
  Alcotest.(check bool) "stops at until" true
    (Array.for_all (fun t -> t <= 0.5) times)

let test_summary () =
  let sim = Engine.Sim.create () in
  let q = Netsim.Qdisc.droptail ~capacity_pkts:10 in
  let monitor = Netsim.Monitor.start ~sim ~qdisc:q ~interval:0.1 ~until:0.55 () in
  Engine.Sim.run ~until:1.0 sim;
  let s = Netsim.Monitor.summary monitor in
  Alcotest.(check int) "summary count" 5 s.Stats.Summary.n

let suite =
  [
    Alcotest.test_case "samples occupancy" `Quick test_samples_occupancy;
    Alcotest.test_case "times monotone" `Quick test_times_monotone;
    Alcotest.test_case "summary" `Quick test_summary;
  ]
