(* Mid-connection handover: one QTP_AF flow (g = 0.5 Mb/s, a rate every
   access technology here can carry) migrates WiFi -> cellular ->
   satellite and back up, under each of the three rate policies.  The
   table contrasts the policies on exactly the axes the mobility
   literature argues about: how fast the throughput recovers onto the
   new path, how many retransmissions the transition provokes (Keep
   keeps blasting at the old rate into a 13x-slower link), and whether
   the gTFRC floor survives the move. *)

type direction = Down | Up

let dir_name = function
  | Down -> "wifi->3g->sat"
  | Up -> "sat->3g->wifi"

(* (rate Mb/s, one-way delay s) *)
let wifi = (20.0, 0.008)

let cellular = (1.5, 0.060)

let satellite = (2.0, 0.270)

let paths_of = function
  | Down -> [ wifi; cellular; satellite ]
  | Up -> [ satellite; cellular; wifi ]

let t_ho1 = 5.0

let t_ho2 = 10.0

let duration = 16.0

let g_mbps = 0.5

let policies : Tfrc.Handover.policy list = [ `Keep; `Reset; `Informed ]

type result = {
  pre_bps : float;  (** settled rate on the first path *)
  rec1 : float option;  (** recovery time after handover 1, None = > cap *)
  retx1 : int;  (** retransmissions in the 2 s after handover 1 *)
  rec2 : float option;
  retx2 : int;
  post_bps : float;  (** settled rate on the final path *)
  floor_min_bps : float;
      (** worst 1 s goodput window after the first handover (transients
          excluded) — the gTFRC floor holds iff this stays >= g *)
}

(* A policy has "recovered" once goodput over a sliding 1 s window
   reaches half the new path's capacity; the search is capped at 4.5 s
   (the inter-handover gap). *)
let recovery_cap = 4.5

let recovery ~rate ~at ~cap_bps =
  let rec find tau =
    if tau > recovery_cap then None
    else if rate ~from_:(at +. tau) ~until:(at +. tau +. 1.0) >= 0.5 *. cap_bps
    then Some tau
    else find (tau +. 0.25)
  in
  find 0.0

let run_one ~seed ~dir ~policy =
  let paths = paths_of dir in
  let sim, m = Common.mobile_path ~seed ~paths () in
  let topo = Netsim.Topology.mobile_net m in
  let agreed =
    Qtp.Profile.agreed_exn
      (Qtp.Profile.qtp_af ~g_bps:(Common.mbps g_mbps) ())
      (Qtp.Profile.anything ())
  in
  let _, delay0 = List.hd paths in
  let cfg =
    Qtp.Connection.config
      ~initial_rtt:(Float.max 0.05 (4.0 *. delay0))
      ~handover:policy agreed
  in
  let conn =
    Qtp.Connection.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 0) cfg
  in
  let goodput = Common.tap_goodput ~sim conn in
  Netsim.Topology.on_migrate m (fun idx ->
      Qtp.Connection.notify_migration conn ~link:(Common.declared_link m idx));
  Netsim.Topology.apply_schedule m [ (t_ho1, 1, `Drain); (t_ho2, 2, `Drain) ];
  let retx_at = Array.make 4 0 in
  let sample slot at =
    Engine.Sim.post_at sim at (fun () ->
        retx_at.(slot) <- Qtp.Connection.retransmissions conn)
  in
  sample 0 t_ho1;
  sample 1 (t_ho1 +. 2.0);
  sample 2 t_ho2;
  sample 3 (t_ho2 +. 2.0);
  Engine.Sim.run ~until:duration sim;
  let rate ~from_ ~until = Stats.Series.rate_bps goodput ~from_ ~until in
  let cap i = Common.mbps (fst (List.nth paths i)) in
  let floor_min =
    let worst = ref infinity in
    let scan from_ until =
      let t = ref from_ in
      while !t +. 1.0 <= until do
        worst := Float.min !worst (rate ~from_:!t ~until:(!t +. 1.0));
        t := !t +. 0.5
      done
    in
    scan (t_ho1 +. 1.5) t_ho2;
    scan (t_ho2 +. 1.5) duration;
    !worst
  in
  {
    pre_bps = rate ~from_:1.0 ~until:t_ho1;
    rec1 = recovery ~rate ~at:t_ho1 ~cap_bps:(cap 1);
    retx1 = retx_at.(1) - retx_at.(0);
    rec2 = recovery ~rate ~at:t_ho2 ~cap_bps:(cap 2);
    retx2 = retx_at.(3) - retx_at.(2);
    post_bps = rate ~from_:(t_ho2 +. 1.5) ~until:duration;
    floor_min_bps = floor_min;
  }

let cell_rec = function
  | Some tau -> Stats.Table.cell_f tau
  | None -> Printf.sprintf "> %.1f" recovery_cap

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E18: handover rate policies — one QTP_AF flow (g = 0.5 Mb/s) \
         migrating across WiFi (20 Mb/s, 16 ms RTT), cellular (1.5 Mb/s, \
         120 ms) and satellite (2 Mb/s, 540 ms) at t = 5 s and t = 10 s"
      ~columns:
        [
          ("direction", Stats.Table.Left);
          ("policy", Stats.Table.Left);
          ("pre (Mb/s)", Stats.Table.Right);
          ("rec1 (s)", Stats.Table.Right);
          ("retx1", Stats.Table.Right);
          ("rec2 (s)", Stats.Table.Right);
          ("retx2", Stats.Table.Right);
          ("post (Mb/s)", Stats.Table.Right);
          ("min/g", Stats.Table.Right);
        ]
  in
  List.iter
    (fun dir ->
      List.iter
        (fun policy ->
          let r = run_one ~seed ~dir ~policy in
          Stats.Table.add_row table
            [
              dir_name dir;
              Tfrc.Handover.policy_name policy;
              Stats.Table.cell_f (r.pre_bps /. 1e6);
              cell_rec r.rec1;
              Stats.Table.cell_i r.retx1;
              cell_rec r.rec2;
              Stats.Table.cell_i r.retx2;
              Stats.Table.cell_f (r.post_bps /. 1e6);
              Stats.Table.cell_f (r.floor_min_bps /. Common.mbps g_mbps);
            ])
        policies)
    [ Down; Up ];
  table
