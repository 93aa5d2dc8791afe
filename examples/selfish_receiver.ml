(* The selfish receiver attack (Georg & Gorinsky, cited in §3) and why
   QTP_light is immune.

   A standard TFRC receiver computes the loss event rate p itself and
   reports it; a selfish one simply reports p = 0 and the sender keeps
   accelerating regardless of actual congestion.  In QTP_light the
   receiver only acknowledges what it received (SACK); the sender
   reconstructs p from that coverage, so there is no number to lie
   about — a receiver claiming packets it never got would also be
   telling the reliability plane not to repair them.

   The lie is told where a real one would be: on the wire.  The
   receiving endpoint is wrapped so that each report it sends carries
   p = 0; the connection itself stays honest.

   Run with:  dune exec examples/selfish_receiver.exe *)

let loss = 0.02

let duration = Ex_common.duration 30.0

let run ~light ~selfish =
  let sim = Engine.Sim.create ~seed:3 () in
  let rng = Engine.Sim.split_rng sim in
  let forward =
    Netsim.Topology.spec ~rate_bps:10e6 ~delay:0.04
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
      ~loss:(fun () -> Netsim.Loss_model.bernoulli ~p:loss ~rng)
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  let offer =
    if light then
      Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ()
    else Qtp.Profile.qtp_tfrc ()
  in
  let responder =
    if light then Qtp.Profile.mobile_receiver () else Qtp.Profile.anything ()
  in
  let agreed = Qtp.Profile.agreed_exn offer responder in
  let endpoint = Netsim.Topology.endpoint topo 0 in
  let endpoint =
    if selfish then Experiments.Common.selfish_receiver ~p_factor:0.0 endpoint
    else endpoint
  in
  let endpoint, arrivals = Experiments.Common.probe_arrivals ~sim endpoint in
  ignore
    (Qtp.Connection.create ~sim ~endpoint
       (Qtp.Connection.config ~initial_rtt:0.2 agreed));
  Engine.Sim.run ~until:duration sim;
  Stats.Series.rate_bps arrivals ~from_:(duration /. 6.0) ~until:duration
  /. 1e6

let () =
  Format.printf "path: 10 Mb/s with %.0f%% random loss@.@." (loss *. 100.0);
  let honest_std = run ~light:false ~selfish:false in
  let lying_std = run ~light:false ~selfish:true in
  let honest_light = run ~light:true ~selfish:false in
  let lying_light = run ~light:true ~selfish:true in
  Format.printf "standard TFRC, honest receiver:   %6.2f Mb/s (fair rate)@."
    honest_std;
  Format.printf "standard TFRC, selfish receiver:  %6.2f Mb/s  <- %.1fx theft@."
    lying_std (lying_std /. honest_std);
  Format.printf "QTP_light, honest receiver:       %6.2f Mb/s@." honest_light;
  Format.printf "QTP_light, 'selfish' receiver:    %6.2f Mb/s  <- no channel to lie@."
    lying_light
