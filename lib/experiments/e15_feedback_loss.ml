let fwd_loss = 0.02

let rev_rates = [ 0.0; 0.1; 0.3 ]

let run_case ~seed ~light ~rev =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:10.0
      ~loss:(Common.bernoulli fwd_loss)
      ~rev_loss:(Common.bernoulli rev)
      ()
  in
  let offer =
    if light then
      Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ()
    else Qtp.Profile.qtp_tfrc ()
  in
  let responder =
    if light then Qtp.Profile.mobile_receiver () else Qtp.Profile.anything ()
  in
  let agreed = Qtp.Profile.agreed_exn offer responder in
  let endpoint, arrivals =
    Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint
      (Qtp.Connection.config ~initial_rtt:0.2 agreed)
  in
  Engine.Sim.run ~until:Common.duration sim;
  ( Common.measured_rate arrivals /. 1e6,
    Qtp.Connection.sender_loss_estimate conn )

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "E15: robustness to feedback loss (%.0f%% forward loss; reverse \
            loss swept)"
           (fwd_loss *. 100.0))
      ~columns:
        [
          ("rev loss", Stats.Table.Right);
          ("plane", Stats.Table.Left);
          ("rate (Mb/s)", Stats.Table.Right);
          ("p at sender", Stats.Table.Right);
        ]
  in
  List.iter
    (fun rev ->
      List.iter
        (fun light ->
          let rate, p = run_case ~seed ~light ~rev in
          Stats.Table.add_row table
            [
              Stats.Table.cell_f ~decimals:2 rev;
              (if light then "QTP_light" else "standard");
              Stats.Table.cell_f rate;
              Stats.Table.cell_f ~decimals:4 p;
            ])
        [ false; true ])
    rev_rates;
  table
