(* Netsim.Topology.parking_lot, and the chain: a lot whose one flow
   crosses every hop. *)

let frame ?(flow = 0) uid =
  Netsim.Frame.make ~uid ~flow_id:flow ~size:1000 (Netsim.Frame.Raw uid)

let spec ?(rate = 1e6) ?(delay = 0.01) ?loss () =
  match loss with
  | None -> Netsim.Topology.spec ~rate_bps:rate ~delay ()
  | Some l -> Netsim.Topology.spec ~rate_bps:rate ~delay ~loss:l ()

let chain ~sim hops =
  Netsim.Topology.parking_lot ~sim ~hops ~paths:[| (0, List.length hops) |] ()

(* Frames each hop of a parking lot (links "hop-0", "hop-1", ...) has
   handed on, in hop order. *)
let delivered_per_hop topo =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"hop-" (Netsim.Link.name l) then
        Some (Netsim.Link.stats l).Netsim.Link.delivered
      else None)
    topo.Netsim.Topology.links

let test_chain_traverses_all_hops () =
  let sim = Engine.Sim.create () in
  let topo = chain ~sim [ spec (); spec (); spec () ] in
  let ep = Netsim.Topology.endpoint topo 0 in
  let arrived = ref 0 in
  ep.Netsim.Topology.on_receiver_rx (fun _ -> incr arrived);
  ep.Netsim.Topology.to_receiver (frame 1);
  Engine.Sim.run sim;
  Alcotest.(check int) "arrived" 1 !arrived;
  Alcotest.(check (list int)) "crossed all three hops" [ 1; 1; 1 ]
    (delivered_per_hop topo)

let test_chain_delay_accumulates () =
  let sim = Engine.Sim.create () in
  let topo = chain ~sim [ spec ~delay:0.01 (); spec ~delay:0.02 () ] in
  let ep = Netsim.Topology.endpoint topo 0 in
  let at = ref 0.0 in
  ep.Netsim.Topology.on_receiver_rx (fun _ -> at := Engine.Sim.now sim);
  ep.Netsim.Topology.to_receiver (frame 1);
  Engine.Sim.run sim;
  (* 2 serialisations of 8 ms (1000 B at 1 Mb/s) + 30 ms propagation. *)
  Alcotest.(check (float 1e-6)) "arrival time" 0.046 !at

let test_chain_bottleneck_is_slowest () =
  let sim = Engine.Sim.create () in
  let topo =
    chain ~sim [ spec ~rate:1e7 (); spec ~rate:2e6 (); spec ~rate:5e6 () ]
  in
  Alcotest.(check (float 1.0)) "slowest hop" 2e6
    (Netsim.Link.rate_bps topo.Netsim.Topology.bottleneck)

let test_chain_rejects_empty () =
  let sim = Engine.Sim.create () in
  Alcotest.(check bool) "empty hops rejected" true
    (try
       ignore (chain ~sim []);
       false
     with Invalid_argument _ -> true)

let test_chain_loss_compounds () =
  (* Two hops of 10% loss each: survival ~ 0.81. *)
  let sim = Engine.Sim.create ~seed:131 () in
  let rng = Engine.Sim.split_rng sim in
  let lossy () =
    spec ~rate:1e8
      ~loss:(fun () ->
        Netsim.Loss_model.bernoulli ~p:0.1 ~rng:(Engine.Rng.split rng))
      ()
  in
  let topo = chain ~sim [ lossy (); lossy () ] in
  let ep = Netsim.Topology.endpoint topo 0 in
  let got = ref 0 in
  ep.Netsim.Topology.on_receiver_rx (fun _ -> incr got);
  let n = 20000 in
  let rec send i =
    if i < n then begin
      ep.Netsim.Topology.to_receiver (frame i);
      ignore (Engine.Sim.schedule_after sim 1e-4 (fun () -> send (i + 1)))
    end
  in
  ignore (Engine.Sim.schedule_at sim 0.0 (fun () -> send 0));
  Engine.Sim.run sim;
  let survival = float_of_int !got /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "survival %f ~ 0.81" survival)
    true
    (Float.abs (survival -. 0.81) < 0.02)

let test_parking_lot_paths () =
  let sim = Engine.Sim.create () in
  (* Three hops; flow 0 crosses all, flow 1 only hop 1, flow 2 hops 1-2. *)
  let topo =
    Netsim.Topology.parking_lot ~sim
      ~hops:[ spec (); spec (); spec () ]
      ~paths:[| (0, 3); (1, 2); (1, 3) |]
      ()
  in
  let arrived = Array.make 3 0 in
  Array.iteri
    (fun i (ep : Netsim.Topology.endpoint) ->
      ep.Netsim.Topology.on_receiver_rx (fun f ->
          if f.Netsim.Frame.flow_id = i then arrived.(i) <- arrived.(i) + 1))
    topo.Netsim.Topology.endpoints;
  Array.iteri
    (fun i (ep : Netsim.Topology.endpoint) ->
      ep.Netsim.Topology.to_receiver (frame ~flow:i (100 + i)))
    topo.Netsim.Topology.endpoints;
  Engine.Sim.run sim;
  Alcotest.(check (array int)) "one arrival per path" [| 1; 1; 1 |] arrived;
  (* Hop 0 carries flow 0 only, hop 1 all three, hop 2 flows 0 and 2. *)
  Alcotest.(check (list int)) "frames per hop" [ 1; 3; 2 ]
    (delivered_per_hop topo)

let test_parking_lot_shared_middle_hop () =
  let sim = Engine.Sim.create () in
  let topo =
    Netsim.Topology.parking_lot ~sim
      ~hops:[ spec ~rate:2e6 (); spec ~rate:1e6 (); spec ~rate:2e6 () ]
      ~paths:[| (0, 3); (1, 2) |]
      ()
  in
  Array.iter
    (fun (ep : Netsim.Topology.endpoint) ->
      ep.Netsim.Topology.on_receiver_rx (fun _ -> ()))
    topo.Netsim.Topology.endpoints;
  Alcotest.(check (float 1.0)) "middle hop is the bottleneck" 1e6
    (Netsim.Link.rate_bps topo.Netsim.Topology.bottleneck);
  (topo.Netsim.Topology.endpoints.(0)).Netsim.Topology.to_receiver
    (frame ~flow:0 1);
  (topo.Netsim.Topology.endpoints.(1)).Netsim.Topology.to_receiver
    (frame ~flow:1 2);
  Engine.Sim.run sim;
  let st = Netsim.Link.stats topo.Netsim.Topology.bottleneck in
  Alcotest.(check int) "both crossed the shared hop" 2 st.Netsim.Link.delivered

let test_parking_lot_validates () =
  let sim = Engine.Sim.create () in
  Alcotest.(check bool) "bad range rejected" true
    (try
       ignore
         (Netsim.Topology.parking_lot ~sim ~hops:[ spec () ]
            ~paths:[| (0, 2) |] ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "parking lot paths" `Quick test_parking_lot_paths;
    Alcotest.test_case "parking lot shared hop" `Quick
      test_parking_lot_shared_middle_hop;
    Alcotest.test_case "parking lot validates" `Quick test_parking_lot_validates;
    Alcotest.test_case "chain traverses hops" `Quick
      test_chain_traverses_all_hops;
    Alcotest.test_case "chain delay accumulates" `Quick
      test_chain_delay_accumulates;
    Alcotest.test_case "chain bottleneck" `Quick test_chain_bottleneck_is_slowest;
    Alcotest.test_case "chain rejects empty" `Quick test_chain_rejects_empty;
    Alcotest.test_case "chain loss compounds" `Quick test_chain_loss_compounds;
  ]
