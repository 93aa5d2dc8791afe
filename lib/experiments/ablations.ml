let n_packets = 20_000

let pkt_gap = 0.001

let rtt = 0.05

let feed_history ~pattern ~group_rtt =
  let lh = Tfrc.Loss_history.create () in
  Array.iteri
    (fun i alive ->
      if alive then
        Tfrc.Loss_history.on_packet lh ~seq:(Packet.Serial.of_int i)
          ~arrival:(float_of_int i *. pkt_gap)
          ~rtt:group_rtt ~is_retx:false)
    pattern;
  lh

let loss_event_grouping ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "Ablation: loss-event grouping (RTT window) vs per-loss accounting \
         under bursty loss"
      ~columns:
        [
          ("loss process", Stats.Table.Left);
          ("losses", Stats.Table.Right);
          ("events (grouped)", Stats.Table.Right);
          ("p grouped", Stats.Table.Right);
          ("p ungrouped", Stats.Table.Right);
          ("eq rate grouped (Mb/s)", Stats.Table.Right);
          ("eq rate ungrouped (Mb/s)", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (name, model) ->
      let rng = Engine.Rng.create ~seed in
      let lm =
        match model with
        | `Bernoulli p -> Common.bernoulli p rng
        | `Gilbert (l, b) ->
            Netsim.Loss_model.gilbert ~loss:l ~burstiness:b ~rng
      in
      let pattern =
        Array.init n_packets (fun _ -> not (Netsim.Loss_model.drops lm))
      in
      let losses =
        Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 pattern
      in
      let grouped = feed_history ~pattern ~group_rtt:rtt in
      (* group_rtt = 0: every loss lands outside the previous event's
         window, so each becomes its own event. *)
      let ungrouped = feed_history ~pattern ~group_rtt:0.0 in
      let p_g = Tfrc.Loss_history.loss_event_rate grouped in
      let p_u = Tfrc.Loss_history.loss_event_rate ungrouped in
      let eq p =
        if p <= 0.0 then nan
        else Tfrc.Equation.rate_bps ~s:1500 ~r:rtt ~p /. 1e6
      in
      Stats.Table.add_row table
        [
          name;
          Stats.Table.cell_i losses;
          Stats.Table.cell_i (Tfrc.Loss_history.loss_events grouped);
          Stats.Table.cell_f ~decimals:4 p_g;
          Stats.Table.cell_f ~decimals:4 p_u;
          Stats.Table.cell_f (eq p_g);
          Stats.Table.cell_f (eq p_u);
        ])
    [
      ("bernoulli 2%", `Bernoulli 0.02);
      ("gilbert 2% mild", `Gilbert (0.02, 0.3));
      ("gilbert 2% bursty", `Gilbert (0.02, 0.8));
      ("gilbert 5% bursty", `Gilbert (0.05, 0.8));
    ];
  table

let history_discounting ?(seed = 42) () =
  (* 2% loss for the first quarter of the trace, then a clean path; watch
     how fast p decays with and without §5.5 discounting. *)
  let rng = Engine.Rng.create ~seed in
  let lossy_until = n_packets / 4 in
  let pattern =
    Array.init n_packets (fun i ->
        if i < lossy_until then not (Engine.Rng.chance rng 0.02) else true)
  in
  let feed ~discount ~upto =
    let lh = Tfrc.Loss_history.create ~discount () in
    for i = 0 to upto - 1 do
      if pattern.(i) then
        Tfrc.Loss_history.on_packet lh ~seq:(Packet.Serial.of_int i)
          ~arrival:(float_of_int i *. pkt_gap)
          ~rtt ~is_retx:false
    done;
    Tfrc.Loss_history.loss_event_rate lh
  in
  let table =
    Stats.Table.create
      ~title:
        "Ablation: history discounting — p decay after the path turns clean \
         (loss stops at packet 5000)"
      ~columns:
        [
          ("packets seen", Stats.Table.Right);
          ("p with discounting", Stats.Table.Right);
          ("p without", Stats.Table.Right);
          ("ratio without/with", Stats.Table.Right);
        ]
  in
  List.iter
    (fun upto ->
      let p_d = feed ~discount:true ~upto in
      let p_n = feed ~discount:false ~upto in
      Stats.Table.add_row table
        [
          Stats.Table.cell_i upto;
          Stats.Table.cell_f ~decimals:5 p_d;
          Stats.Table.cell_f ~decimals:5 p_n;
          Stats.Table.cell_f (if p_d > 0.0 then p_n /. p_d else nan);
        ])
    [ 5_000; 6_000; 8_000; 12_000; 20_000 ];
  table

let sack_block_budget ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "Ablation: SACK blocks per report vs sender-side estimation and rate \
         (QTP_light, per-RTT reports, 5% loss)"
      ~columns:
        [
          ("blocks", Stats.Table.Right);
          ("rate (Mb/s)", Stats.Table.Right);
          ("p at sender", Stats.Table.Right);
          ("retx", Stats.Table.Right);
          ("fb bytes", Stats.Table.Right);
        ]
  in
  List.iter
    (fun blocks ->
      let sim, topo =
        Common.lossy_path ~seed ~rate_mbps:10.0 ~loss:(Common.bernoulli 0.05)
          ()
      in
      let agreed =
        Qtp.Profile.agreed_exn
          (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_partial ] ())
          (Qtp.Profile.mobile_receiver ())
      in
      let cfg =
        Qtp.Connection.config ~initial_rtt:0.2 ~sack_blocks:blocks agreed
      in
      let endpoint, arrivals =
        Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
      in
      let conn = Qtp.Connection.create ~sim ~endpoint cfg in
      Engine.Sim.run ~until:Common.duration sim;
      Stats.Table.add_row table
        [
          Stats.Table.cell_i blocks;
          Stats.Table.cell_f (Common.measured_rate arrivals /. 1e6);
          Stats.Table.cell_f ~decimals:4
            (Qtp.Connection.sender_loss_estimate conn);
          Stats.Table.cell_i (Qtp.Connection.retransmissions conn);
          Stats.Table.cell_i (Qtp.Connection.feedback_bytes conn);
        ])
    [ 1; 2; 4; 8 ];
  table
