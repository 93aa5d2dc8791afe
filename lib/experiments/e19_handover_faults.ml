(* Handover under in-network faults: QTP_light with full reliability
   rides the downgrade path sequence (WiFi -> cellular -> satellite)
   while a Mangler reorders, duplicates or corrupts frames on every
   path, and the second migration is a hard [`Cut] that drops the whole
   flight.  Whatever the policy does to the rate, the reliability plane
   must still deliver every distinct segment and close cleanly — the
   table is the end-to-end witness that mobility composes with the
   fault machinery. *)

let paths = [ (20.0, 0.008); (1.5, 0.060); (2.0, 0.270) ]

let schedule : Netsim.Topology.handover_schedule =
  [ (3.0, 1, `Drain); (6.0, 2, `Cut) ]

let duration = 9.0

(* The satellite leg's RTT is ~0.54 s and CLOSE retries back off, so
   give the close exchange an ample drain horizon. *)
let drain = 60.0

let manglers =
  [
    ("clean", Netsim.Mangler.none);
    ("reorder", Netsim.Mangler.profile ~p_reorder:0.05 ~reorder_max_hold:4 ());
    ("duplicate", Netsim.Mangler.profile ~p_duplicate:0.05 ());
    ("corrupt", Netsim.Mangler.profile ~p_corrupt:0.02 ());
    ( "all",
      Netsim.Mangler.profile ~p_reorder:0.03 ~reorder_max_hold:4
        ~p_duplicate:0.02 ~p_corrupt:0.01 () );
  ]

let policies : Tfrc.Handover.policy list = [ `Keep; `Reset; `Informed ]

let run_one ~seed ~mangle ~policy =
  let sim, m = Common.mobile_path ~seed ~paths ~mangle () in
  let topo = Netsim.Topology.mobile_net m in
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_full ] ())
      (Qtp.Profile.anything ())
  in
  let cfg = Qtp.Connection.config ~initial_rtt:0.05 ~handover:policy agreed in
  let conn =
    Qtp.Connection.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 0) cfg
  in
  let goodput = Common.tap_goodput ~sim conn in
  Netsim.Topology.on_migrate m (fun idx ->
      Qtp.Connection.notify_migration conn ~link:(Common.declared_link m idx));
  Netsim.Topology.apply_schedule m schedule;
  Engine.Sim.run ~until:duration sim;
  Qtp.Connection.close conn;
  Engine.Sim.run ~until:(duration +. drain) sim;
  (conn, goodput)

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E19: handover under faults — QTP_light (full reliability) across \
         WiFi -> cellular -> satellite with a drain handover at 3 s and a \
         cut at 6 s, mangler active on every path"
      ~columns:
        [
          ("mangler", Stats.Table.Left);
          ("policy", Stats.Table.Left);
          ("goodput (Mb/s)", Stats.Table.Right);
          ("sent", Stats.Table.Right);
          ("retx", Stats.Table.Right);
          ("delivered", Stats.Table.Right);
          ("close", Stats.Table.Left);
          ("reliable", Stats.Table.Left);
        ]
  in
  List.iter
    (fun (mname, mangle) ->
      List.iter
        (fun policy ->
          let conn, goodput = run_one ~seed ~mangle ~policy in
          let sent = Qtp.Connection.data_sent conn in
          let delivered = Qtp.Connection.delivered conn in
          let closed =
            match Qtp.Connection.state conn with
            | Qtp.Connection.Closed -> true
            | _ -> false
          in
          let reliable =
            closed && delivered = sent
            && Qtp.Connection.skipped conn = 0
            && Qtp.Connection.abandoned conn = 0
          in
          Stats.Table.add_row table
            [
              mname;
              Tfrc.Handover.policy_name policy;
              Stats.Table.cell_f
                (Stats.Series.rate_bps goodput ~from_:1.0 ~until:duration
                /. 1e6);
              Stats.Table.cell_i sent;
              Stats.Table.cell_i (Qtp.Connection.retransmissions conn);
              Stats.Table.cell_i delivered;
              (if closed then "clean" else "STUCK");
              (if reliable then "ok" else "LOST");
            ])
        policies)
    manglers;
  table
