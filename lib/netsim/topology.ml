type spec = {
  rate_bps : float;
  delay : float;
  qdisc : unit -> Qdisc.t;
  loss : unit -> Loss_model.t;
  mangle : unit -> Mangler.t option;
}

let no_mangler () = None

let spec ?(qdisc = fun () -> Qdisc.droptail ~capacity_pkts:100)
    ?(loss = fun () -> Loss_model.none) ?(mangle = no_mangler) ~rate_bps
    ~delay () =
  { rate_bps; delay; qdisc; loss; mangle }

type endpoint = {
  flow_id : int;
  to_receiver : Frame.t -> unit;
  to_sender : Frame.t -> unit;
  on_receiver_rx : (Frame.t -> unit) -> unit;
  on_sender_rx : (Frame.t -> unit) -> unit;
}

type t = {
  sim : Engine.Sim.t;
  bottleneck : Link.t;
  endpoints : endpoint array;
  links : Link.t list;  (** every link in the topology, access links included *)
}

let link_of_spec ~sim ~name s =
  Link.create ~sim ~rate_bps:s.rate_bps ~delay:s.delay ~qdisc:(s.qdisc ())
    ~loss:(s.loss ()) ?mangler:(s.mangle ()) ~name ()

let default_reverse_of bottleneck =
  {
    rate_bps = bottleneck.rate_bps;
    delay = bottleneck.delay;
    qdisc = (fun () -> Qdisc.droptail ~capacity_pkts:2000);
    loss = (fun () -> Loss_model.none);
    mangle = no_mangler;
  }

let default_access_of bottleneck =
  {
    rate_bps = 10.0 *. bottleneck.rate_bps;
    delay = 0.001;
    qdisc = (fun () -> Qdisc.droptail ~capacity_pkts:2000);
    loss = (fun () -> Loss_model.none);
    mangle = no_mangler;
  }

let dumbbell ~sim ~n_flows ~bottleneck ?reverse ?committed_rates () =
  assert (n_flows > 0);
  let reverse_spec =
    match reverse with Some r -> r | None -> default_reverse_of bottleneck
  in
  let access_spec = default_access_of bottleneck in
  let bneck = link_of_spec ~sim ~name:"bottleneck" bottleneck in
  let rev = link_of_spec ~sim ~name:"reverse" reverse_spec in
  let fwd_router = Router.create () in
  let rev_router = Router.create () in
  Link.connect bneck (Router.forward fwd_router);
  Link.connect rev (Router.forward rev_router);
  let make_endpoint i =
    let access =
      link_of_spec ~sim ~name:(Printf.sprintf "access-%d" i) access_spec
    in
    Link.connect access (Link.send bneck);
    let marker =
      match committed_rates with
      | Some rates when rates.(i) > 0.0 ->
          Some
            (Marker.create ~sim ~committed_rate_bps:rates.(i)
               ~burst:(4 * 1500))
      | Some _ | None -> None
    in
    let to_receiver frame =
      (match marker with Some m -> Marker.mark m frame | None -> ());
      Link.send access frame
    in
    ( {
        flow_id = i;
        to_receiver;
        to_sender = Link.send rev;
        on_receiver_rx =
          (fun sink -> Router.add_route fwd_router ~flow_id:i sink);
        on_sender_rx = (fun sink -> Router.add_route rev_router ~flow_id:i sink);
      },
      access )
  in
  let pairs = Array.init n_flows make_endpoint in
  {
    sim;
    bottleneck = bneck;
    endpoints = Array.map fst pairs;
    links = bneck :: rev :: Array.to_list (Array.map snd pairs);
  }

let duplex_path ~sim ~forward ?reverse () =
  let reverse_spec =
    match reverse with Some r -> r | None -> default_reverse_of forward
  in
  let fwd = link_of_spec ~sim ~name:"forward" forward in
  let rev = link_of_spec ~sim ~name:"reverse" reverse_spec in
  let fwd_router = Router.create () in
  let rev_router = Router.create () in
  Link.connect fwd (Router.forward fwd_router);
  Link.connect rev (Router.forward rev_router);
  let ep =
    {
      flow_id = 0;
      to_receiver = Link.send fwd;
      to_sender = Link.send rev;
      on_receiver_rx =
        (fun sink -> Router.add_route fwd_router ~flow_id:0 sink);
      on_sender_rx = (fun sink -> Router.add_route rev_router ~flow_id:0 sink);
    }
  in
  { sim; bottleneck = fwd; endpoints = [| ep |]; links = [ fwd; rev ] }

let parking_lot ~sim ~hops ~paths ?reverse () =
  if hops = [] then invalid_arg "Topology.parking_lot: no hops";
  let n_hops = List.length hops in
  Array.iter
    (fun (a, b) ->
      if a < 0 || b > n_hops || a >= b then
        invalid_arg "Topology.parking_lot: bad hop range")
    paths;
  let first_hop = List.hd hops in
  let reverse_spec =
    match reverse with Some r -> r | None -> default_reverse_of first_hop
  in
  let links =
    List.mapi
      (fun i s -> link_of_spec ~sim ~name:(Printf.sprintf "hop-%d" i) s)
    hops
    |> Array.of_list
  in
  let rev = link_of_spec ~sim ~name:"reverse" reverse_spec in
  (* One router after each hop decides, per flow, whether the frame
     continues to the next hop or terminates here. *)
  let routers = Array.init n_hops (fun _ -> Router.create ()) in
  Array.iteri (fun i link -> Link.connect link (Router.forward routers.(i))) links;
  let rev_router = Router.create () in
  Link.connect rev (Router.forward rev_router);
  let bottleneck =
    Array.fold_left
      (fun best l -> if Link.rate_bps l < Link.rate_bps best then l else best)
      links.(0) links
  in
  let make_endpoint i (enter, exit_) =
    (* Forward the flow along hops enter .. exit_-1. *)
    for h = enter to exit_ - 2 do
      Router.add_route routers.(h) ~flow_id:i (Link.send links.(h + 1))
    done;
    {
      flow_id = i;
      to_receiver = Link.send links.(enter);
      to_sender = Link.send rev;
      on_receiver_rx =
        (fun sink -> Router.add_route routers.(exit_ - 1) ~flow_id:i sink);
      on_sender_rx = (fun sink -> Router.add_route rev_router ~flow_id:i sink);
    }
  in
  {
    sim;
    bottleneck;
    endpoints = Array.mapi make_endpoint paths;
    links = rev :: Array.to_list links;
  }

let endpoint t i = t.endpoints.(i)

(* ---- Mobility: a single flow re-homed between heterogeneous paths ---- *)

type handover_mode = [ `Drain | `Cut ]

type path = { fwd : Link.t; rev : Link.t }

type mobile = {
  net : t;
  paths : path array;
  active : int ref;
  migrate_hook : (int -> unit) ref;
}

type handover_schedule = (float * int * handover_mode) list

let ignore_migrate (_ : int) = ()

let mobile ~sim ~paths:specs () =
  if specs = [] then invalid_arg "Topology.mobile: no paths";
  let specs = Array.of_list specs in
  let rev_specs = Array.map default_reverse_of specs in
  let fwd_router = Router.create () in
  let rev_router = Router.create () in
  let paths =
    Array.init (Array.length specs) (fun i ->
        let fwd =
          link_of_spec ~sim ~name:(Printf.sprintf "path-%d" i) specs.(i)
        in
        let rev =
          link_of_spec ~sim
            ~name:(Printf.sprintf "path-%d-rev" i)
            rev_specs.(i)
        in
        Link.connect fwd (Router.forward fwd_router);
        Link.connect rev (Router.forward rev_router);
        { fwd; rev })
  in
  let active = ref 0 in
  let ep =
    {
      flow_id = 0;
      to_receiver = (fun frame -> Link.send paths.(!active).fwd frame);
      to_sender = (fun frame -> Link.send paths.(!active).rev frame);
      on_receiver_rx =
        (fun sink -> Router.add_route fwd_router ~flow_id:0 sink);
      on_sender_rx = (fun sink -> Router.add_route rev_router ~flow_id:0 sink);
    }
  in
  let links =
    Array.to_list paths |> List.concat_map (fun p -> [ p.fwd; p.rev ])
  in
  let net =
    {
      sim;
      bottleneck = paths.(0).fwd;
      endpoints = [| ep |];
      links;
    }
  in
  { net; paths; active; migrate_hook = ref ignore_migrate }

let mobile_net m = m.net
let path_fwd m i = m.paths.(i).fwd
let path_rev m i = m.paths.(i).rev
let on_migrate m f = m.migrate_hook := f

(* Self-migration is a complete no-op — no trace event, no severing, no
   hook — so a schedule of degenerate handovers is observationally
   identical to no schedule at all (the byte-identical differential
   test pins this). *)
let migrate_flow m ~to_ ~mode =
  if to_ < 0 || to_ >= Array.length m.paths then
    invalid_arg "Topology.migrate_flow: path index out of range";
  let from = !(m.active) in
  if to_ <> from then begin
    let old_p = m.paths.(from) and new_p = m.paths.(to_) in
    let cut = match mode with `Cut -> true | `Drain -> false in
    if cut then begin
      Link.sever old_p.fwd;
      Link.sever old_p.rev
    end;
    Link.restore new_p.fwd;
    Link.restore new_p.rev;
    if Trace.Recorder.on () then
      Trace.Recorder.emit ~flow:0
        ~at:(Engine.Sim.now m.net.sim)
        (Trace.Event.Handover
           {
             from_path = Link.name old_p.fwd;
             to_path = Link.name new_p.fwd;
             cut;
           });
    m.active := to_;
    !(m.migrate_hook) to_
  end

let apply_schedule m schedule =
  List.iter
    (fun (at, to_, mode) ->
      Engine.Sim.post_at m.net.sim at (fun () -> migrate_flow m ~to_ ~mode))
    schedule
