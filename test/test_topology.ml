(* Netsim.Topology and Router/Marker: routing, marking, plumbing. *)

let frame ?(flow = 0) ?(size = 1000) uid =
  Netsim.Frame.make ~uid ~flow_id:flow ~size (Netsim.Frame.Raw uid)

let test_router_routes_by_flow () =
  let r = Netsim.Router.create () in
  let a = ref 0 and b = ref 0 in
  Netsim.Router.add_route r ~flow_id:1 (fun _ -> incr a);
  Netsim.Router.add_route r ~flow_id:2 (fun _ -> incr b);
  Netsim.Router.forward r (frame ~flow:1 1);
  Netsim.Router.forward r (frame ~flow:2 2);
  Netsim.Router.forward r (frame ~flow:1 3);
  Alcotest.(check int) "flow 1" 2 !a;
  Alcotest.(check int) "flow 2" 1 !b

(* A frame of a flow with no route is counted and dropped; a route
   added later takes the flow's next frame. *)
let test_router_unroutable () =
  let r = Netsim.Router.create () in
  Netsim.Router.forward r (frame ~flow:9 1);
  Alcotest.(check int) "unroutable counted" 1 (Netsim.Router.unroutable r);
  let d = ref 0 in
  Netsim.Router.add_route r ~flow_id:9 (fun _ -> incr d);
  Netsim.Router.forward r (frame ~flow:9 2);
  Alcotest.(check int) "route used" 1 !d;
  Alcotest.(check int) "no new unroutable" 1 (Netsim.Router.unroutable r)

(* Routes are indexed by flow id: a negative id is refused when routed
   and counted unroutable when forwarded, as is an id past the table; a
   sparse id grows the table without disturbing the others. *)
let test_router_ids () =
  let r = Netsim.Router.create () in
  Alcotest.check_raises "negative flow_id"
    (Invalid_argument "Router.add_route: negative flow_id -1") (fun () ->
      Netsim.Router.add_route r ~flow_id:(-1) ignore);
  let a = ref 0 and sparse = ref 0 in
  Netsim.Router.add_route r ~flow_id:0 (fun _ -> incr a);
  Netsim.Router.forward r (frame ~flow:(-1) 1);
  Netsim.Router.forward r (frame ~flow:1 2);
  Netsim.Router.forward r (frame ~flow:1_000_000 3);
  Alcotest.(check int) "negative, unset and past the table: unroutable" 3
    (Netsim.Router.unroutable r);
  Netsim.Router.add_route r ~flow_id:5_000 (fun _ -> incr sparse);
  Netsim.Router.forward r (frame ~flow:5_000 4);
  Netsim.Router.forward r (frame ~flow:4_999 5);
  Netsim.Router.forward r (frame ~flow:0 6);
  Alcotest.(check int) "sparse id routed" 1 !sparse;
  Alcotest.(check int) "gap below it: unroutable" 4
    (Netsim.Router.unroutable r);
  Alcotest.(check int) "earlier route kept" 1 !a;
  let fresh = Netsim.Router.create () in
  let s = ref 0 in
  Netsim.Router.add_route fresh ~flow_id:5_000 (fun _ -> incr s);
  Netsim.Router.forward fresh (frame ~flow:5_000 7);
  Netsim.Router.forward fresh (frame ~flow:0 8);
  Alcotest.(check int) "sparse id on a fresh router" 1 !s;
  Alcotest.(check int) "below it, unroutable" 1 (Netsim.Router.unroutable fresh)

let test_marker_colours () =
  let sim = Engine.Sim.create () in
  (* 0.8 Mb/s committed, 2000 B burst: the first two 1000 B packets are
     green, an immediate third is red. *)
  let m = Netsim.Marker.create ~sim ~committed_rate_bps:8.0e5 ~burst:2000 in
  let f1 = frame 1 and f2 = frame 2 and f3 = frame 3 in
  Netsim.Marker.mark m f1;
  Netsim.Marker.mark m f2;
  Netsim.Marker.mark m f3;
  Alcotest.(check bool) "f1 green" true
    (Netsim.Mark.equal f1.Netsim.Frame.mark Netsim.Mark.Green);
  Alcotest.(check bool) "f2 green" true
    (Netsim.Mark.equal f2.Netsim.Frame.mark Netsim.Mark.Green);
  Alcotest.(check bool) "f3 red" true
    (Netsim.Mark.equal f3.Netsim.Frame.mark Netsim.Mark.Red);
  Alcotest.(check int) "green count" 2 (Netsim.Marker.green_count m);
  Alcotest.(check int) "red count" 1 (Netsim.Marker.red_count m)

let test_duplex_path_round_trip () =
  let sim = Engine.Sim.create () in
  let forward = Netsim.Topology.spec ~rate_bps:1e6 ~delay:0.01 () in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  let ep = Netsim.Topology.endpoint topo 0 in
  let got_fwd = ref false and got_rev = ref false in
  ep.Netsim.Topology.on_receiver_rx (fun _ ->
      got_fwd := true;
      ep.Netsim.Topology.to_sender (frame 2));
  ep.Netsim.Topology.on_sender_rx (fun _ -> got_rev := true);
  ep.Netsim.Topology.to_receiver (frame 1);
  Engine.Sim.run sim;
  Alcotest.(check bool) "forward delivered" true !got_fwd;
  Alcotest.(check bool) "reverse delivered" true !got_rev

let test_dumbbell_isolates_flows () =
  let sim = Engine.Sim.create () in
  let bottleneck = Netsim.Topology.spec ~rate_bps:1e7 ~delay:0.01 () in
  let topo = Netsim.Topology.dumbbell ~sim ~n_flows:3 ~bottleneck () in
  let hits = Array.make 3 0 in
  Array.iteri
    (fun i ep ->
      ep.Netsim.Topology.on_receiver_rx (fun _ -> hits.(i) <- hits.(i) + 1))
    topo.Netsim.Topology.endpoints;
  (topo.Netsim.Topology.endpoints.(0)).Netsim.Topology.to_receiver
    (frame ~flow:0 1);
  (topo.Netsim.Topology.endpoints.(2)).Netsim.Topology.to_receiver
    (frame ~flow:2 2);
  (topo.Netsim.Topology.endpoints.(2)).Netsim.Topology.to_receiver
    (frame ~flow:2 3);
  Engine.Sim.run sim;
  Alcotest.(check (array int)) "per-flow delivery" [| 1; 0; 2 |] hits

let test_dumbbell_shares_bottleneck () =
  let sim = Engine.Sim.create () in
  let bottleneck = Netsim.Topology.spec ~rate_bps:1e6 ~delay:0.01 () in
  let topo = Netsim.Topology.dumbbell ~sim ~n_flows:2 ~bottleneck () in
  Array.iter
    (fun (ep : Netsim.Topology.endpoint) ->
      ep.Netsim.Topology.on_receiver_rx (fun _ -> ()))
    topo.Netsim.Topology.endpoints;
  (topo.Netsim.Topology.endpoints.(0)).Netsim.Topology.to_receiver
    (frame ~flow:0 1);
  (topo.Netsim.Topology.endpoints.(1)).Netsim.Topology.to_receiver
    (frame ~flow:1 2);
  Engine.Sim.run sim;
  let st = Netsim.Link.stats topo.Netsim.Topology.bottleneck in
  Alcotest.(check int) "both crossed the bottleneck" 2
    st.Netsim.Link.delivered

let test_dumbbell_markers () =
  let sim = Engine.Sim.create () in
  let bottleneck = Netsim.Topology.spec ~rate_bps:1e7 ~delay:0.01 () in
  let topo =
    Netsim.Topology.dumbbell ~sim ~n_flows:2 ~bottleneck
      ~committed_rates:[| 1e6; 0.0 |] ()
  in
  let seen = Array.make 2 [] in
  Array.iteri
    (fun i (ep : Netsim.Topology.endpoint) ->
      ep.Netsim.Topology.on_receiver_rx (fun f ->
          seen.(i) <- f.Netsim.Frame.mark :: seen.(i));
      ep.Netsim.Topology.to_receiver (frame ~flow:i (i + 1)))
    topo.Netsim.Topology.endpoints;
  Engine.Sim.run sim;
  Alcotest.(check bool) "flow 0: in-profile marked green" true
    (seen.(0) = [ Netsim.Mark.Green ]);
  Alcotest.(check bool) "flow 1: no marker, best effort" true
    (seen.(1) = [ Netsim.Mark.Best_effort ])

let suite =
  [
    Alcotest.test_case "router by flow" `Quick test_router_routes_by_flow;
    Alcotest.test_case "router default" `Quick test_router_unroutable;
    Alcotest.test_case "router ids" `Quick test_router_ids;
    Alcotest.test_case "marker colours" `Quick test_marker_colours;
    Alcotest.test_case "duplex round trip" `Quick test_duplex_path_round_trip;
    Alcotest.test_case "dumbbell isolates flows" `Quick
      test_dumbbell_isolates_flows;
    Alcotest.test_case "dumbbell shares bottleneck" `Quick
      test_dumbbell_shares_bottleneck;
    Alcotest.test_case "dumbbell markers" `Quick test_dumbbell_markers;
  ]
