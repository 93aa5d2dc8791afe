module Caps = Qtp.Capabilities

type shape =
  | Dumbbell of int
  | Chain of int
  | Parking_lot of int

type loss =
  | Clean
  | Bernoulli of float
  | Gilbert of { loss : float; burstiness : float }

type profile =
  | P_af of float
  | P_light of Caps.reliability_mode
  | P_tfrc
  | P_full

type workload =
  | Greedy
  | Cbr of float
  | On_off of float

type link_class = Wifi | Cellular | Satellite

type ho_link = {
  cls : link_class;
  ho_rate_mbps : float;
  ho_delay_ms : float;
  ho_loss : float;
}

type handover = {
  ho_links : ho_link list;
  ho_schedule : (float * int * [ `Drain | `Cut ]) list;
  ho_policy : [ `Keep | `Reset | `Informed ];
}

type trunk = {
  tr_users : int;
  tr_sched : [ `Fifo | `Drr ];
  tr_quantum : int;
  tr_frame_cap : int;
}

type t = {
  seed : int;
  shape : shape;
  rate_mbps : float;
  delay_ms : float;
  buffer_pkts : int;
  red : bool;
  loss : loss;
  mangle : Netsim.Mangler.profile;
  mangle_reverse : bool;
  profile : profile;
  workload : workload;
  background : bool;
  duration : float;
  handover : handover option;
  trunk : trunk option;
}

let flows t =
  match t.shape with
  | Dumbbell n -> n
  | Chain _ -> 1
  | Parking_lot _ -> 2

let expected_mode t =
  match t.profile with
  | P_af _ | P_full -> Caps.R_full
  | P_tfrc -> Caps.R_none
  | P_light m -> m

let expected_plane t =
  match t.profile with
  | P_light _ -> Caps.Light
  | P_af _ | P_tfrc | P_full -> Caps.Standard

let faulty t =
  (match t.loss with Clean -> false | Bernoulli _ | Gilbert _ -> true)
  || Netsim.Mangler.is_active t.mangle
  || (match t.handover with
     | None -> false
     | Some h ->
         (* A [`Cut] handover drops everything in flight, and lossy
            member links lose packets on their own — both excuse
            timeouts a clean path would not. *)
         List.exists (fun (_, _, m) -> m = `Cut) h.ho_schedule
         || List.exists (fun l -> l.ho_loss > 0.0) h.ho_links)

(* Generation bounds.  They are chosen so that the close-drain horizon
   used by {!Exec} is always sufficient: rtt is capped (rate >= 1 Mb/s,
   buffer <= 120 pkts, one-way delay <= 80 ms) and fault probabilities
   are moderate enough that handshakes and CLOSE exchanges almost
   always complete within their retry budgets.

   The [`Lfn] band moves only the path-parameter bounds into
   long-fat-network territory — 125..250 ms one-way delay (250..500 ms
   RTT), faster bottlenecks, buffers sized for the larger
   bandwidth-delay product, and shorter durations so a run's packet
   count stays comparable.  The draw SEQUENCE is identical in both
   bands: every committed fuzz seed keeps its byte-identical [`Std]
   scenario.

   The [`Handover] band reuses the full standard draw sequence and only
   THEN overrides the mobility-relevant fields (single flow, no
   background, longer run) and draws the heterogeneous path set — so
   again no existing band's scenario moves.  The handover schedule
   itself is drawn from a {!Engine.Rng.derive}d child stream keyed by
   the seed: migration times are independent of how many draws precede
   them, which a property test pins. *)

let ho_schedule_key = 0x484f (* "HO" *)

let trunk_key = 0x5452 (* "TR" *)

let ho_link_of_class hrng cls =
  let lo, hi, dlo, dhi =
    match cls with
    | Wifi -> (10.0, 50.0, 3.0, 15.0)
    | Cellular -> (0.5, 2.0, 40.0, 100.0)
    | Satellite -> (1.0, 4.0, 250.0, 300.0)
  in
  {
    cls;
    ho_rate_mbps = Engine.Dist.log_uniform_range hrng ~lo ~hi;
    ho_delay_ms = Engine.Dist.uniform_range hrng ~lo:dlo ~hi:dhi;
    ho_loss =
      (if Engine.Rng.chance hrng 0.3 then
         Engine.Dist.log_uniform_range hrng ~lo:1e-4 ~hi:0.02
       else 0.0);
  }

let generate_handover ~seed ~duration rng =
  (* Path parameters come from the parent stream; migration TIMES come
     from a derived stream so they do not depend on the number of
     preceding draws. *)
  let perms =
    [|
      [| Wifi; Cellular; Satellite |]; [| Wifi; Satellite; Cellular |];
      [| Cellular; Wifi; Satellite |]; [| Cellular; Satellite; Wifi |];
      [| Satellite; Wifi; Cellular |]; [| Satellite; Cellular; Wifi |];
    |]
  in
  let classes = Engine.Dist.choice rng perms in
  let ho_links = Array.to_list (Array.map (ho_link_of_class rng) classes) in
  let n_links = Array.length classes in
  let n_events = 2 + Engine.Rng.int rng 3 in
  let ho_policy =
    Engine.Dist.choice rng [| `Keep; `Reset; `Informed |]
  in
  let trng = Engine.Rng.derive rng ~key:(ho_schedule_key lxor seed) in
  let times =
    List.sort Float.compare
      (List.init n_events (fun _ ->
           Engine.Dist.uniform_range trng ~lo:(0.15 *. duration)
             ~hi:(0.85 *. duration)))
  in
  let active = ref 0 in
  let ho_schedule =
    List.map
      (fun at ->
        (* Always migrate to a DIFFERENT path: draw an offset in
           [1, n-1] from the current one. *)
        let to_ = (!active + 1 + Engine.Rng.int trng (n_links - 1)) mod n_links in
        active := to_;
        let mode = if Engine.Rng.chance trng 0.7 then `Drain else `Cut in
        (at, to_, mode))
      times
  in
  { ho_links; ho_schedule; ho_policy }

let generate_in ~band ~seed =
  let rng = Engine.Rng.create ~seed in
  let lfn = band = `Lfn in
  let shape =
    match
      Engine.Dist.weighted rng
        [ (3.0, `D1); (2.0, `Dn); (2.0, `Chain); (1.0, `Parking) ]
    with
    | `D1 -> Dumbbell 1
    | `Dn -> Dumbbell (2 + Engine.Rng.int rng 3)
    | `Chain -> Chain (2 + Engine.Rng.int rng 2)
    | `Parking -> Parking_lot (2 + Engine.Rng.int rng 2)
  in
  let rate_mbps =
    if lfn then Engine.Dist.log_uniform_range rng ~lo:8.0 ~hi:64.0
    else Engine.Dist.log_uniform_range rng ~lo:1.0 ~hi:16.0
  in
  let delay_ms =
    if lfn then Engine.Dist.log_uniform_range rng ~lo:125.0 ~hi:250.0
    else Engine.Dist.log_uniform_range rng ~lo:2.0 ~hi:80.0
  in
  let buffer_pkts =
    (* Upper bound keeps the worst-case queueing delay (buffer drained
       at the slowest LFN rate) small enough that [Exec]'s drain slack
       still covers the close driver's 200-poll horizon. *)
    if lfn then 500 + Engine.Rng.int rng 1001 else 10 + Engine.Rng.int rng 111
  in
  let red = Engine.Rng.chance rng 0.25 in
  let loss =
    match Engine.Dist.weighted rng [ (5.0, `C); (3.0, `B); (2.0, `G) ] with
    | `C -> Clean
    | `B -> Bernoulli (Engine.Dist.log_uniform_range rng ~lo:1e-4 ~hi:0.05)
    | `G ->
        Gilbert
          {
            loss = Engine.Dist.log_uniform_range rng ~lo:1e-3 ~hi:0.03;
            burstiness = Engine.Rng.float rng 0.8;
          }
  in
  let fault_p () = Engine.Dist.log_uniform_range rng ~lo:1e-3 ~hi:0.12 in
  let p_reorder = if Engine.Rng.chance rng 0.5 then fault_p () else 0.0 in
  let reorder_max_hold = 1 + Engine.Rng.int rng 8 in
  let p_duplicate = if Engine.Rng.chance rng 0.5 then fault_p () else 0.0 in
  let p_corrupt = if Engine.Rng.chance rng 0.5 then fault_p () else 0.0 in
  let mangle =
    Netsim.Mangler.profile ~p_reorder ~reorder_max_hold ~p_duplicate
      ~p_corrupt ()
  in
  let mangle_reverse = Engine.Rng.chance rng 0.3 in
  let profile =
    match Engine.Rng.int rng 4 with
    | 0 -> P_af (0.1 +. Engine.Rng.float rng 0.4)
    | 1 ->
        P_light
          (Engine.Dist.choice rng [| Caps.R_none; Caps.R_partial; Caps.R_full |])
    | 2 -> P_tfrc
    | _ -> P_full
  in
  let workload =
    match Engine.Dist.weighted rng [ (2.0, `G); (2.0, `C); (1.0, `O) ] with
    | `G -> Greedy
    | `C -> Cbr (0.3 +. Engine.Rng.float rng 0.9)
    | `O -> On_off (0.5 +. Engine.Rng.float rng 1.0)
  in
  let background = Engine.Rng.chance rng 0.3 in
  let duration =
    if lfn then 2.5 +. Engine.Rng.float rng 2.5
    else 4.0 +. Engine.Rng.float rng 8.0
  in
  let base =
    {
      seed;
      shape;
      rate_mbps;
      delay_ms;
      buffer_pkts;
      red;
      loss;
      mangle;
      mangle_reverse;
      profile;
      workload;
      background;
      duration;
      handover = None;
      trunk = None;
    }
  in
  match band with
  | `Std | `Lfn -> base
  | `Handover ->
      (* Mobility: one flow, no cross-traffic, a longer run so every
         migration has time to show its rate transient, and a clean
         bottleneck model — losses come from the member links and the
         schedule instead.  [rate_mbps]/[delay_ms] mirror path 0 so
         fair-share computations see the initial path. *)
      let duration = 8.0 +. Engine.Rng.float rng 8.0 in
      let ho = generate_handover ~seed ~duration rng in
      let first = List.hd ho.ho_links in
      {
        base with
        shape = Dumbbell 1;
        rate_mbps = first.ho_rate_mbps;
        delay_ms = first.ho_delay_ms;
        red = false;
        loss = Clean;
        background = false;
        duration;
        handover = Some ho;
      }
  | `Trunk ->
      (* Flow aggregation: ONE gTFRC connection fronting many user
         micro-flows.  The base draw sequence is fully consumed first,
         then the trunk-specific draws come from a derived stream keyed
         by the seed — like the handover schedule, they are independent
         of draw position.  Reliability is forced to full (the
         conservation oracle needs every shipped byte delivered); the
         path, loss model and mangler come from the base scenario, so
         trunks face reordering, duplication and corruption too. *)
      let trng = Engine.Rng.derive rng ~key:(trunk_key lxor seed) in
      let tr_users =
        int_of_float (Engine.Dist.log_uniform_range trng ~lo:10.0 ~hi:1000.0)
      in
      let tr_sched = if Engine.Rng.chance trng 0.5 then `Drr else `Fifo in
      let tr_quantum = Engine.Dist.choice trng [| 500; 1500; 3000 |] in
      let tr_frame_cap = Engine.Dist.choice trng [| 128; 256; 512 |] in
      let profile =
        match base.profile with
        | P_light _ -> P_light Caps.R_full
        | P_tfrc -> P_full
        | (P_af _ | P_full) as p -> p
      in
      {
        base with
        shape = Dumbbell 1;
        profile;
        workload = Greedy;
        background = false;
        trunk = Some { tr_users; tr_sched; tr_quantum; tr_frame_cap };
      }

let generate ~seed = generate_in ~band:`Std ~seed

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_shape fmt = function
  | Dumbbell n -> Format.fprintf fmt "dumbbell(%d)" n
  | Chain h -> Format.fprintf fmt "chain(%d hops)" h
  | Parking_lot h -> Format.fprintf fmt "parking-lot(%d hops)" h

let pp_loss fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Bernoulli p -> Format.fprintf fmt "bernoulli(%.4g)" p
  | Gilbert { loss; burstiness } ->
      Format.fprintf fmt "gilbert(loss=%.4g, burst=%.2f)" loss burstiness

let pp_profile fmt = function
  | P_af frac -> Format.fprintf fmt "qtp_af(g=%.2f of fair share)" frac
  | P_light m -> Format.fprintf fmt "qtp_light(%a)" Caps.pp_mode m
  | P_tfrc -> Format.pp_print_string fmt "qtp_tfrc"
  | P_full -> Format.pp_print_string fmt "qtp_full"

let pp_workload fmt = function
  | Greedy -> Format.pp_print_string fmt "greedy"
  | Cbr f -> Format.fprintf fmt "cbr(%.2f of fair share)" f
  | On_off f -> Format.fprintf fmt "on-off(%.2f of fair share)" f

let class_name = function
  | Wifi -> "wifi"
  | Cellular -> "cellular"
  | Satellite -> "satellite"

let policy_name = function
  | `Keep -> "keep"
  | `Reset -> "reset"
  | `Informed -> "informed"

let pp_ho_link fmt l =
  Format.fprintf fmt "%s(%.3g Mb/s, %.3g ms%s)" (class_name l.cls)
    l.ho_rate_mbps l.ho_delay_ms
    (if l.ho_loss > 0.0 then Format.sprintf ", loss=%.4g" l.ho_loss else "")

let pp_handover fmt h =
  Format.fprintf fmt "policy=%s paths=[%a] schedule=[%a]"
    (policy_name h.ho_policy)
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       pp_ho_link)
    h.ho_links
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (at, to_, mode) ->
         Format.fprintf fmt "%.3fs->%d %s" at to_
           (match mode with `Drain -> "drain" | `Cut -> "cut")))
    h.ho_schedule

let pp_handover_opt fmt = function
  | None -> ()
  | Some h -> Format.fprintf fmt "@,handover: %a" pp_handover h

let sched_name = function `Fifo -> "fifo" | `Drr -> "drr"

let pp_trunk fmt tr =
  Format.fprintf fmt "%d users, %s, quantum=%d, frame_cap=%d" tr.tr_users
    (sched_name tr.tr_sched) tr.tr_quantum tr.tr_frame_cap

let pp_trunk_opt fmt = function
  | None -> ()
  | Some tr -> Format.fprintf fmt "@,trunk:    %a" pp_trunk tr

let pp fmt t =
  Format.fprintf fmt
    "@[<v 2>scenario seed=%d@,\
     shape:    %a@,\
     path:     %.3g Mb/s, %.3g ms, %d pkts %s@,\
     loss:     %a@,\
     mangle:   %a%s@,\
     profile:  %a@,\
     workload: %a%s@,\
     duration: %.2f s%a%a@]"
    t.seed pp_shape t.shape t.rate_mbps t.delay_ms t.buffer_pkts
    (if t.red then "(RED)" else "(droptail)")
    pp_loss t.loss Netsim.Mangler.pp_profile t.mangle
    (if t.mangle_reverse then " +reverse" else "")
    pp_profile t.profile pp_workload t.workload
    (if t.background then " +background" else "")
    t.duration pp_handover_opt t.handover pp_trunk_opt t.trunk

let summary t =
  Format.asprintf "seed=%d %a %a %a %.2fs%s" t.seed pp_shape t.shape pp_profile
    t.profile pp_loss t.loss t.duration
    ((match t.handover with
     | None -> ""
     | Some h ->
         Format.sprintf " handover(%s, %d migrations)"
           (policy_name h.ho_policy)
           (List.length h.ho_schedule))
    ^
    match t.trunk with
    | None -> ""
    | Some tr ->
        Format.sprintf " trunk(%d users, %s)" tr.tr_users
          (sched_name tr.tr_sched))

let equal (a : t) (b : t) =
  a.seed = b.seed && a.shape = b.shape
  && Float.equal a.rate_mbps b.rate_mbps
  && Float.equal a.delay_ms b.delay_ms
  && a.buffer_pkts = b.buffer_pkts && a.red = b.red
  && (match (a.loss, b.loss) with
     | Clean, Clean -> true
     | Bernoulli x, Bernoulli y -> Float.equal x y
     | Gilbert g, Gilbert h ->
         Float.equal g.loss h.loss && Float.equal g.burstiness h.burstiness
     | _ -> false)
  && Float.equal a.mangle.Netsim.Mangler.p_reorder
       b.mangle.Netsim.Mangler.p_reorder
  && a.mangle.Netsim.Mangler.reorder_max_hold
     = b.mangle.Netsim.Mangler.reorder_max_hold
  && Float.equal a.mangle.Netsim.Mangler.p_duplicate
       b.mangle.Netsim.Mangler.p_duplicate
  && Float.equal a.mangle.Netsim.Mangler.p_corrupt
       b.mangle.Netsim.Mangler.p_corrupt
  && a.mangle_reverse = b.mangle_reverse
  && (match (a.profile, b.profile) with
     | P_af x, P_af y -> Float.equal x y
     | P_light m, P_light n -> m = n
     | P_tfrc, P_tfrc | P_full, P_full -> true
     | _ -> false)
  && (match (a.workload, b.workload) with
     | Greedy, Greedy -> true
     | Cbr x, Cbr y | On_off x, On_off y -> Float.equal x y
     | _ -> false)
  && a.background = b.background
  && Float.equal a.duration b.duration
  &&
  let ho_link_equal (x : ho_link) (y : ho_link) =
    x.cls = y.cls
    && Float.equal x.ho_rate_mbps y.ho_rate_mbps
    && Float.equal x.ho_delay_ms y.ho_delay_ms
    && Float.equal x.ho_loss y.ho_loss
  in
  let sched_equal (ta, pa, ma) (tb, pb, mb) =
    Float.equal ta tb && pa = pb && ma = mb
  in
  (match (a.handover, b.handover) with
  | None, None -> true
  | Some x, Some y ->
      x.ho_policy = y.ho_policy
      && List.length x.ho_links = List.length y.ho_links
      && List.for_all2 ho_link_equal x.ho_links y.ho_links
      && List.length x.ho_schedule = List.length y.ho_schedule
      && List.for_all2 sched_equal x.ho_schedule y.ho_schedule
  | _ -> false)
  &&
  match (a.trunk, b.trunk) with
  | None, None -> true
  | Some x, Some y ->
      x.tr_users = y.tr_users && x.tr_sched = y.tr_sched
      && x.tr_quantum = y.tr_quantum
      && x.tr_frame_cap = y.tr_frame_cap
  | _ -> false
