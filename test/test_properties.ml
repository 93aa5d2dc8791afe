(* Failure-injection property tests: random path conditions and
   compositions, invariant contracts checked on every run.

   Each property builds a short (8 s) simulation so qcheck can afford
   dozens of cases. *)

let run_random_connection ~seed ~loss ~burst ~mode ~light =
  let sim = Engine.Sim.create ~seed () in
  let rng = Engine.Sim.split_rng sim in
  let forward =
    Netsim.Topology.spec ~rate_bps:10e6 ~delay:0.02
      ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:40)
      ~loss:(fun () ->
        if loss <= 0.0 then Netsim.Loss_model.none
        else if burst then
          Netsim.Loss_model.gilbert ~loss ~burstiness:0.6
            ~rng:(Engine.Rng.split rng)
        else Netsim.Loss_model.bernoulli ~p:loss ~rng:(Engine.Rng.split rng))
      ()
  in
  let topo = Netsim.Topology.duplex_path ~sim ~forward () in
  let offer =
    if light then Qtp.Profile.qtp_light ~reliability:[ mode ] ()
    else
      {
        (Qtp.Profile.qtp_tfrc ()) with
        Qtp.Capabilities.reliability = [ mode ];
      }
  in
  let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
  let endpoint, delays =
    Experiments.Common.probe_delays ~sim (Netsim.Topology.endpoint topo 0)
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Experiments.Common.attach_delays delays conn;
  Engine.Sim.run ~until:8.0 sim;
  (conn, Experiments.Common.delivery_delays delays)

let gen_case =
  QCheck.Gen.(
    map
      (fun ((seed, loss_i), (burst, mode_i, light)) ->
        let loss = float_of_int loss_i /. 100.0 in
        let mode =
          match mode_i mod 3 with
          | 0 -> Qtp.Capabilities.R_none
          | 1 -> Qtp.Capabilities.R_partial
          | _ -> Qtp.Capabilities.R_full
        in
        (seed, loss, burst, mode, light))
      (pair (pair (int_range 1 10_000) (int_range 0 10))
         (triple bool (int_bound 2) bool)))

let arb_case = QCheck.make gen_case

let prop_conservation =
  QCheck.Test.make ~name:"delivered + skipped never exceeds data sent"
    ~count:30 arb_case
    (fun (seed, loss, burst, mode, light) ->
      let conn, _ = run_random_connection ~seed ~loss ~burst ~mode ~light in
      let sent = Qtp.Connection.data_sent conn in
      let accounted =
        Qtp.Connection.delivered conn + Qtp.Connection.skipped conn
      in
      accounted <= sent)

let prop_unreliable_never_retransmits =
  QCheck.Test.make ~name:"R_none never retransmits" ~count:20 arb_case
    (fun (seed, loss, burst, _mode, light) ->
      let conn, _ =
        run_random_connection ~seed ~loss ~burst ~mode:Qtp.Capabilities.R_none
          ~light
      in
      Qtp.Connection.retransmissions conn = 0)

let prop_full_never_skips =
  QCheck.Test.make ~name:"R_full never skips" ~count:20 arb_case
    (fun (seed, loss, burst, _mode, light) ->
      let conn, _ =
        run_random_connection ~seed ~loss ~burst ~mode:Qtp.Capabilities.R_full
          ~light
      in
      Qtp.Connection.skipped conn = 0)

let prop_loss_estimate_sane =
  QCheck.Test.make ~name:"sender loss estimate stays in [0,1]" ~count:20
    arb_case
    (fun (seed, loss, burst, mode, light) ->
      let conn, _ = run_random_connection ~seed ~loss ~burst ~mode ~light in
      let p = Qtp.Connection.sender_loss_estimate conn in
      p >= 0.0 && p <= 1.0)

let prop_progress_on_lossy_paths =
  QCheck.Test.make ~name:"connection always makes progress (loss <= 10%)"
    ~count:20 arb_case
    (fun (seed, loss, burst, mode, light) ->
      let conn, _ = run_random_connection ~seed ~loss ~burst ~mode ~light in
      Qtp.Connection.delivered conn > 0)

let prop_delays_bounded_below =
  QCheck.Test.make ~name:"delivery delays >= one-way delay" ~count:15 arb_case
    (fun (seed, loss, burst, mode, light) ->
      let _, delays = run_random_connection ~seed ~loss ~burst ~mode ~light in
      Array.for_all (fun d -> d >= 0.019) delays)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_unreliable_never_retransmits;
    QCheck_alcotest.to_alcotest prop_full_never_skips;
    QCheck_alcotest.to_alcotest prop_loss_estimate_sane;
    QCheck_alcotest.to_alcotest prop_progress_on_lossy_paths;
    QCheck_alcotest.to_alcotest prop_delays_bounded_below;
  ]
