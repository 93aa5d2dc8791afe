(* Adaptive streaming: the encoder follows the transport.

   A streaming server rarely pushes a fixed bitrate: it encodes at the
   highest ladder rung the transport can carry.  QTP exposes its allowed
   rate ([Qtp.Connection.current_rate_bps]), so the encoder can adapt
   without probing — the §1 "convergence between media streaming and
   mobility" scenario end to end:

     encoder ladder -> QTP_light (partial reliability) -> bursty wireless

   The wireless channel degrades mid-run (1% loss for 30 s, then 6%
   bursty); the run shows the rung trajectory responding and the
   fraction of time spent at each quality.

   Run with:  dune exec examples/adaptive_streaming.exe *)

let ladder = [ 0.4e6; 0.8e6; 1.5e6; 2.5e6; 4.0e6 ]

let duration = Ex_common.duration 60.0

let () =
  let sim = Engine.Sim.create ~seed:9 () in
  let rng = Engine.Sim.split_rng sim in
  (* Two channel regimes; the forward link consults whichever is
     current. *)
  let mild =
    Netsim.Loss_model.gilbert ~loss:0.01 ~burstiness:0.5
      ~rng:(Engine.Rng.split rng)
  in
  let harsh =
    Netsim.Loss_model.gilbert ~loss:0.06 ~burstiness:0.7
      ~rng:(Engine.Rng.split rng)
  in
  let regime = ref mild in
  let forward =
    Netsim.Topology.spec ~rate_bps:5e6 ~delay:0.03
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
      ~loss:(fun () ->
        Netsim.Loss_model.custom ~expected:0.01 (fun () ->
            Netsim.Loss_model.drops !regime))
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  Engine.Sim.post_at sim (0.5 *. duration) (fun () ->
      Format.printf "t=%5.1fs  -- channel degrades to 6%% bursty loss --@."
        (0.5 *. duration);
      regime := harsh);
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_partial ] ())
      (Qtp.Profile.mobile_receiver ())
  in
  let source, push = Qtp.Source.queued () in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint topo 0)
      ~source
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  let media =
    Workload.Adaptive_media.start ~sim ~rng:(Engine.Rng.split rng)
      ~ladder_bps:ladder
      ~transport_rate_bps:(fun () -> Qtp.Connection.current_rate_bps conn)
      ~push ~stop_at:duration ()
  in
  let rec log () =
    Format.printf "t=%5.1fs  transport %.2f Mb/s  rung %.2f Mb/s@."
      (Engine.Sim.now sim)
      (Qtp.Connection.current_rate_bps conn /. 1e6)
      (Workload.Adaptive_media.current_rung_bps media /. 1e6);
    if Engine.Sim.now sim < duration -. 5.0 then
      Engine.Sim.post_after sim 5.0 log
  in
  Engine.Sim.post_at sim 5.0 log;
  Engine.Sim.run ~until:duration sim;
  Format.printf "@.%d frames, %d quality switches@."
    (Workload.Adaptive_media.frames_emitted media)
    (Workload.Adaptive_media.switches media);
  Format.printf "time share per rung:@.";
  List.iter
    (fun (rung, frac) ->
      Format.printf "  %.2f Mb/s: %4.1f%%@." (rung /. 1e6) (100.0 *. frac))
    (Workload.Adaptive_media.rung_time_fractions media);
  Format.printf "delivered %d segments (%d skipped past deadline)@."
    (Qtp.Connection.delivered conn)
    (Qtp.Connection.skipped conn)
