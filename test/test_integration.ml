(* Cross-stack integration: the paper's qualitative claims as asserted
   tests (slow variants of the experiment suite with fixed seeds). *)

let test_af_assurance_qtp_vs_tcp () =
  (* The headline: at g = 3 Mb/s under heavy excess, QTP_AF collects at
     least 85% of g while TCP gets under 60%. *)
  let tcp =
    Experiments.Af_scenario.run ~seed:42 ~g_mbps:3.0
      ~proto:Experiments.Af_scenario.Tcp_newreno ()
  in
  let qtp =
    Experiments.Af_scenario.run ~seed:42 ~g_mbps:3.0
      ~proto:Experiments.Af_scenario.Qtp_af ()
  in
  let ratio r = r.Experiments.Af_scenario.achieved_wire_bps /. 3.0e6 in
  Alcotest.(check bool)
    (Printf.sprintf "TCP ratio %.2f < 0.6" (ratio tcp))
    true (ratio tcp < 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "QTP_AF ratio %.2f > 0.85" (ratio qtp))
    true (ratio qtp > 0.85)

let test_receiver_load_shift () =
  (* QTP_light must at least halve per-packet receiver work and keep no
     loss-history state at the receiver. *)
  let run light =
    let sim, topo =
      Experiments.Common.lossy_path ~seed:7 ~rate_mbps:10.0
        ~loss:(Experiments.Common.bernoulli 0.02)
        ()
    in
    let cost_receiver = Stats.Cost.create () in
    let cost_sender = Stats.Cost.create () in
    let offer =
      if light then
        Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ()
      else Qtp.Profile.qtp_tfrc ()
    in
    let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
    let endpoint, arrivals =
      Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
    in
    ignore
      (Qtp.Connection.create ~sim ~endpoint ~cost_sender ~cost_receiver
         (Qtp.Connection.config ~initial_rtt:0.2 agreed));
    Engine.Sim.run ~until:30.0 sim;
    let pkts = Stats.Series.count arrivals in
    ( float_of_int (Stats.Cost.total_ops cost_receiver) /. float_of_int pkts,
      Stats.Cost.high_water cost_receiver "lh.entries",
      Stats.Cost.high_water cost_sender "lh.entries" )
  in
  let std_ops, std_mem, std_snd_mem = run false in
  let light_ops, light_mem, light_snd_mem = run true in
  Alcotest.(check bool)
    (Printf.sprintf "light %.2f ops/pkt < half of std %.2f" light_ops std_ops)
    true
    (light_ops < std_ops /. 2.0);
  Alcotest.(check bool) "std receiver holds history" true (std_mem > 0);
  Alcotest.(check int) "light receiver holds none" 0 light_mem;
  Alcotest.(check int) "std sender holds none" 0 std_snd_mem;
  Alcotest.(check bool) "light sender holds the history" true
    (light_snd_mem > 0)

let test_selfish_receiver_immunity () =
  let run ~light ~factor =
    let sim, topo =
      Experiments.Common.lossy_path ~seed:9 ~rate_mbps:10.0
        ~loss:(Experiments.Common.bernoulli 0.02)
        ()
    in
    let offer =
      if light then
        Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ()
      else Qtp.Profile.qtp_tfrc ()
    in
    let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
    let endpoint, arrivals =
      Experiments.Common.probe_arrivals ~sim
        (Experiments.Common.selfish_receiver ~p_factor:factor
           (Netsim.Topology.endpoint topo 0))
    in
    ignore
      (Qtp.Connection.create ~sim ~endpoint
         (Qtp.Connection.config ~initial_rtt:0.2 agreed));
    Engine.Sim.run ~until:30.0 sim;
    Stats.Series.rate_bps arrivals ~from_:5.0 ~until:30.0
  in
  let honest_std = run ~light:false ~factor:1.0 in
  let lying_std = run ~light:false ~factor:0.0 in
  let honest_light = run ~light:true ~factor:1.0 in
  let lying_light = run ~light:true ~factor:0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "lie inflates standard plane (%.0f -> %.0f)" honest_std
       lying_std)
    true
    (lying_std > 3.0 *. honest_std);
  Alcotest.(check (float 1.0)) "light plane ignores the knob entirely"
    honest_light lying_light

(* On the light plane the selfish wrapper has nothing to rewrite: the
   whole run, traced event by event, is the same with and without it. *)
let test_selfish_wrapper_inert_on_light () =
  let digest ~selfish =
    let (), recorder =
      Trace.Recorder.with_recorder (fun () ->
          let sim, topo =
            Experiments.Common.lossy_path ~seed:9 ~rate_mbps:10.0
              ~loss:(Experiments.Common.bernoulli 0.02)
              ()
          in
          let endpoint = Netsim.Topology.endpoint topo 0 in
          let endpoint =
            if selfish then
              Experiments.Common.selfish_receiver ~p_factor:0.0 endpoint
            else endpoint
          in
          let agreed =
            Qtp.Profile.agreed_exn
              (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ())
              (Qtp.Profile.mobile_receiver ())
          in
          ignore
            (Qtp.Connection.create ~sim ~endpoint
               (Qtp.Connection.config ~initial_rtt:0.2 agreed));
          Engine.Sim.run ~until:10.0 sim)
    in
    Alcotest.(check bool) "the run was traced" true
      (Trace.Recorder.events recorder > 1000);
    Trace.Export.digest recorder
  in
  Alcotest.(check string) "same trace with and without the lie"
    (digest ~selfish:false) (digest ~selfish:true)

let test_wireless_tfrc_beats_tcp () =
  let seed = 21 in
  let loss = 0.05 in
  let run_tfrc () =
    let sim, topo =
      Experiments.Common.lossy_path ~seed ~rate_mbps:5.0 ~delay:0.06
        ~loss:(fun rng -> Netsim.Loss_model.gilbert ~loss ~burstiness:0.6 ~rng)
        ()
    in
    let agreed =
      Qtp.Profile.agreed_exn (Qtp.Profile.qtp_tfrc ()) (Qtp.Profile.anything ())
    in
    let endpoint, arrivals =
      Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
    in
    ignore
      (Qtp.Connection.create ~sim ~endpoint
         (Qtp.Connection.config ~initial_rtt:0.2 agreed));
    Engine.Sim.run ~until:40.0 sim;
    Stats.Series.rate_bps arrivals ~from_:5.0 ~until:40.0
  in
  let run_tcp () =
    let sim, topo =
      Experiments.Common.lossy_path ~seed ~rate_mbps:5.0 ~delay:0.06
        ~loss:(fun rng -> Netsim.Loss_model.gilbert ~loss ~burstiness:0.6 ~rng)
        ()
    in
    let goodput =
      Experiments.Common.tap_tcp_goodput ~sim
        (Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 0) ())
    in
    Engine.Sim.run ~until:40.0 sim;
    Stats.Series.rate_bps goodput ~from_:5.0 ~until:40.0
  in
  let tfrc = run_tfrc () and tcp = run_tcp () in
  Alcotest.(check bool)
    (Printf.sprintf "TFRC %.0f > TCP %.0f on bursty wireless" tfrc tcp)
    true (tfrc > tcp)

let test_smoothness_tfrc_vs_tcp () =
  let cov_tfrc, _ = Experiments.E3_smoothness.run_tfrc ~seed:42 ~loss:0.02 in
  let cov_tcp, _ = Experiments.E3_smoothness.run_tcp ~seed:42 ~loss:0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "TFRC CoV %.3f < TCP CoV %.3f" cov_tfrc cov_tcp)
    true (cov_tfrc < cov_tcp)

let test_friendliness_band () =
  let tfrc, tcp = Experiments.E4_friendliness.run_one ~seed:42 ~n:4 in
  let ratio = Stats.Fairness.throughput_ratio tfrc tcp in
  (* "Reasonably fair" band used in the TFRC literature. *)
  Alcotest.(check bool)
    (Printf.sprintf "aggregate ratio %.2f in [0.4, 2.5]" ratio)
    true
    (ratio > 0.4 && ratio < 2.5);
  let jain = Stats.Fairness.jain (Array.append tfrc tcp) in
  Alcotest.(check bool)
    (Printf.sprintf "jain %.2f > 0.6" jain)
    true (jain > 0.6)

let test_estimator_fidelity_network () =
  (* Over a real simulated path (not just traces): sender-side p within
     2x of a standard receiver's p under the same seed/loss process. *)
  let run light =
    let sim, topo =
      Experiments.Common.lossy_path ~seed:33 ~rate_mbps:10.0
        ~loss:(Experiments.Common.bernoulli 0.03)
        ()
    in
    let offer =
      if light then
        Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ()
      else Qtp.Profile.qtp_tfrc ()
    in
    let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
    let conn =
      Qtp.Connection.create ~sim
        ~endpoint:(Netsim.Topology.endpoint topo 0)
        (Qtp.Connection.config ~initial_rtt:0.2 agreed)
    in
    Engine.Sim.run ~until:40.0 sim;
    Qtp.Connection.sender_loss_estimate conn
  in
  let p_std = run false and p_light = run true in
  Alcotest.(check bool)
    (Printf.sprintf "p_light %.4f within 2x of p_std %.4f" p_light p_std)
    true
    (p_light > p_std /. 2.0 && p_light < p_std *. 2.0)

let suite =
  [
    Alcotest.test_case "AF assurance: QTP_AF wins, TCP fails" `Slow
      test_af_assurance_qtp_vs_tcp;
    Alcotest.test_case "receiver load shift" `Slow test_receiver_load_shift;
    Alcotest.test_case "selfish receiver immunity" `Slow
      test_selfish_receiver_immunity;
    Alcotest.test_case "selfish wrapper inert on the light plane" `Quick
      test_selfish_wrapper_inert_on_light;
    Alcotest.test_case "wireless: TFRC > TCP" `Slow test_wireless_tfrc_beats_tcp;
    Alcotest.test_case "smoothness: TFRC < TCP CoV" `Slow
      test_smoothness_tfrc_vs_tcp;
    Alcotest.test_case "friendliness band" `Slow test_friendliness_band;
    Alcotest.test_case "estimator fidelity over network" `Slow
      test_estimator_fidelity_network;
  ]
