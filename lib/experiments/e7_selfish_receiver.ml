let loss = 0.02

let run_case ~seed ~light ~selfish_factor =
  let sim, topo =
    Common.lossy_path ~seed ~rate_mbps:10.0 ~loss:(Common.bernoulli loss) ()
  in
  let offer =
    if light then Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_none ] ()
    else Qtp.Profile.qtp_tfrc ()
  in
  let agreed = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ()) in
  (* The lie is a rewrite of the receiver's reports on the wire; a
     factor of 1.0 leaves every report as it was. *)
  let endpoint, arrivals =
    Common.probe_arrivals ~sim
      (Common.selfish_receiver ~p_factor:selfish_factor
         (Netsim.Topology.endpoint topo 0))
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
           "E7: selfish receiver — achieved rate when the receiver \
            under-reports loss (path loss %.0f%%, fair TFRC rate is the \
            honest row)"
           (loss *. 100.0))
      ~columns:
        [
          ("plane", Stats.Table.Left);
          ("receiver behaviour", Stats.Table.Left);
          ("rate (Mb/s)", Stats.Table.Right);
          ("p at sender", Stats.Table.Right);
          ("inflation vs honest", Stats.Table.Right);
        ]
  in
  let honest_std, _ = run_case ~seed ~light:false ~selfish_factor:1.0 in
  let add ~plane ~behaviour ~light ~factor =
    let rate, p = run_case ~seed ~light ~selfish_factor:factor in
    let baseline = honest_std in
    Stats.Table.add_row table
      [
        plane;
        behaviour;
        Stats.Table.cell_f rate;
        Stats.Table.cell_f ~decimals:4 p;
        Stats.Table.cell_f (rate /. baseline);
      ]
  in
  add ~plane:"standard" ~behaviour:"honest" ~light:false ~factor:1.0;
  add ~plane:"standard" ~behaviour:"selfish (p x0.25)" ~light:false ~factor:0.25;
  add ~plane:"standard" ~behaviour:"selfish (p = 0)" ~light:false ~factor:0.0;
  add ~plane:"QTP_light" ~behaviour:"honest" ~light:true ~factor:1.0;
  add ~plane:"QTP_light" ~behaviour:"selfish (ignored)" ~light:true ~factor:0.0;
  table
