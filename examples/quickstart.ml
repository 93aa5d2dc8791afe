(* Quickstart: open a VTP connection over a simulated path, negotiate a
   profile, transfer data for 10 seconds, print what happened.

   Run with:  dune exec examples/quickstart.exe *)

let duration = Ex_common.duration 10.0

let () =
  (* 1. A simulation world and a 10 Mb/s, 40 ms path. *)
  let sim = Engine.Sim.create ~seed:1 () in
  let forward =
    Netsim.Topology.spec ~rate_bps:10e6 ~delay:0.04
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in

  (* 2. Measure at the endpoint: log every data arrival at the receiver
     (the connection itself keeps counters, not per-packet logs). *)
  let endpoint, arrivals =
    Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in

  (* 3. Negotiate: a streaming server offers QTP_light; the peer is a
     constrained mobile receiver.  The SYN / SYN-ACK / ACK handshake
     runs in-band. *)
  let conn =
    Qtp.Connection.create_negotiated ~sim ~endpoint ~initial_rtt:0.2
      ~initiator:(Qtp.Profile.qtp_light ())
      ~responder:(Qtp.Profile.mobile_receiver ())
      ()
  in

  (* 4. Run virtual time. *)
  Engine.Sim.run ~until:duration sim;

  (* 5. Inspect. *)
  (match Qtp.Connection.state conn with
  | Qtp.Connection.Established agreed ->
      Format.printf "established: %a@." Qtp.Capabilities.pp_agreed agreed
  | Qtp.Connection.Failed reason -> Format.printf "failed: %s@." reason
  | Qtp.Connection.Negotiating | Qtp.Connection.Closing
  | Qtp.Connection.Closed ->
      Format.printf "unexpected connection state@.");
  let rate =
    Stats.Series.rate_bps arrivals ~from_:(0.1 *. duration) ~until:duration
  in
  Format.printf
    "sent %d segments, delivered %d in order, throughput %.2f Mb/s@."
    (Qtp.Connection.data_sent conn)
    (Qtp.Connection.delivered conn)
    (rate /. 1e6);
  Format.printf "sender loss estimate: %.4f (computed sender-side: QTP_light)@."
    (Qtp.Connection.sender_loss_estimate conn)
