(* The benchmark's workloads, how each is built, and the checks its
   outputs must pass.

   Every workload is a closed simulation: the load is the simulated
   population, which sends as fast as its congestion control lets it.
   The seed seeds {!Engine.Sim.create} (RIO drop decisions) and the
   flows' start jitter, so one seed always builds the same run. *)

module Common = Experiments.Common

type shape =
  | Mix of int
      (** [n] flows over the RIO AF dumbbell: a third QTP_AF at
          g = 0.4 Mb/s, a third QTP_light, the rest TCP; 1 Mb/s of
          bottleneck per flow *)
  | Lfn
      (** one long-fat dumbbell carrying QTP_AF, QTP_light with full
          reliability, and TCP *)
  | Trunk of int  (** [users] multiplexed over one DRR trunk *)

type t = {
  name : string;
  shape : shape;
  sim_seconds : float;
  recorded : bool;  (** run inside {!Trace.Recorder.with_recorder} *)
}

(* Sizes put one untraced run at roughly 1.3-3.5 s of wall time on an
   idle 2-core x86 VM, so a 20 s measurement holds at least five runs.
   The seed matters most in a transient: af_mix_500's first 2 simulated
   seconds, where 500 slow starts meet, cost up to twice as much on one
   seed as on another, so its horizon is long enough that the steady
   state after them, alike on every seed, makes most of the run.  lfn_bulk runs past the whole slow-start overshoot
   and its repair (drops start near 3.3 s, repair ends near 5 s, and
   nearly all of the run's wall time falls in between): a horizon that
   cut the repair short would price a seed-dependent slice of it. *)
let all =
  let w ?(recorded = false) name shape sim_seconds =
    { name; shape; sim_seconds; recorded }
  in
  [
    w "af_mix_500" (Mix 500) 20.0;
    w "flows_10k" (Mix 10_000) 0.5;
    w "lfn_bulk" Lfn 5.5;
    w "trunk_1000" (Trunk 1000) 8.0;
    w "af_mix_500_recorded" (Mix 500) 20.0 ~recorded:true;
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let flows w = match w.shape with Mix n -> n | Lfn -> 3 | Trunk users -> users

(* Layer ids of the spans the benchmark opens around its calls into the
   stack; [layer_names] gives each its metric prefix. *)
let fwd_send = 0

let rev_send = 1

let qtp_rx_data = 2

let qtp_rx_feedback = 3

let tcp_rx_data = 4

let tcp_rx_ack = 5

let trunk_take = 6

let layer_names =
  [|
    "netsim.fwd_send";
    "netsim.rev_send";
    "qtp.rx_data";
    "qtp.rx_feedback";
    "tcp.rx_data";
    "tcp.rx_ack";
    "trunk.take";
  |]

type instance = {
  sim : Engine.Sim.t;
  bottleneck : Netsim.Link.t;
  qtp : Qtp.Connection.t array;
  tcp : Tcp.Flow.t array;
  mux : Trunk.Mux.t option;
  topology_ns : int;
  connections_ns : int;
}

(* Time the four boundaries between a transport and the network: the
   two sends the transport calls, and the two receive handlers it
   registers, which the network calls.  [flow] numbers the flow across
   the whole workload. *)
let spanned spans ~flow ~rx_data ~rx_fb (ep : Netsim.Topology.endpoint) =
  match spans with
  | None -> ep
  | Some s ->
      let open Netsim.Topology in
      {
        ep with
        to_receiver = Span.wrap s ~layer:fwd_send ~flow ep.to_receiver;
        to_sender = Span.wrap s ~layer:rev_send ~flow ep.to_sender;
        on_receiver_rx =
          (fun h -> ep.on_receiver_rx (Span.wrap s ~layer:rx_data ~flow h));
        on_sender_rx =
          (fun h -> ep.on_sender_rx (Span.wrap s ~layer:rx_fb ~flow h));
      }

let qtp_endpoint spans ~flow topo i =
  spanned spans ~flow ~rx_data:qtp_rx_data ~rx_fb:qtp_rx_feedback
    (Netsim.Topology.endpoint topo i)

let tcp_endpoint spans ~flow topo i =
  spanned spans ~flow ~rx_data:tcp_rx_data ~rx_fb:tcp_rx_ack
    (Netsim.Topology.endpoint topo i)

let agreed offer = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ())

(* Start times spread over [0, 100 ms), drawn from a child stream of the
   simulation's root so the jitter does not shift any other draw. *)
let jitter sim =
  let rng = Engine.Rng.derive (Engine.Sim.rng sim) ~key:0x6a17 in
  fun () -> Engine.Rng.float rng 0.1

let mix_connections ?spans ~sim ~topo n =
  let n_af = n / 3 and n_light = n / 3 in
  let start = jitter sim in
  let af =
    Qtp.Connection.config ~initial_rtt:0.2
      (agreed (Qtp.Profile.qtp_af ~g_bps:(Common.mbps 0.4) ()))
  in
  let light =
    Qtp.Connection.config ~initial_rtt:0.2 (agreed (Qtp.Profile.qtp_light ()))
  in
  let qtp =
    Array.init (n_af + n_light) (fun i ->
        Qtp.Connection.create ~sim ~endpoint:(qtp_endpoint spans ~flow:i topo i)
          ~start_at:(start ())
          (if i < n_af then af else light))
  in
  let tcp =
    Array.init (n - n_af - n_light) (fun j ->
        let i = n_af + n_light + j in
        Tcp.Flow.create ~sim ~endpoint:(tcp_endpoint spans ~flow:i topo i)
          ~start_at:(start ()) ())
  in
  (qtp, tcp, None)

(* The E17 shape at 160 Mb/s: 500 ms RTT, buffered at half a
   bandwidth-delay product (BDP 6.7k packets), the AF flow reserving a
   quarter; windows reach ~10k packets at the overshoot. *)
let lfn_delay = 0.25

let lfn_mbps = 160.0

let lfn_topology sim =
  let rtt = 2.0 *. lfn_delay in
  let bdp_pkts = Common.mbps lfn_mbps *. rtt /. (8.0 *. 1500.0) in
  let rng = Engine.Sim.split_rng sim in
  let bottleneck =
    Netsim.Topology.spec ~rate_bps:(Common.mbps lfn_mbps) ~delay:lfn_delay
      ~qdisc:(fun () ->
        Common.af_rio
          ~capacity_pkts:(int_of_float (0.5 *. bdp_pkts))
          ~rng:(Engine.Rng.split rng) ())
      ()
  in
  Netsim.Topology.dumbbell ~sim ~n_flows:3 ~bottleneck
    ~committed_rates:[| Common.mbps (lfn_mbps /. 4.0); 0.0; 0.0 |]
    ()

let lfn_connections ?spans ~sim ~topo () =
  let start = jitter sim in
  let rtt = 2.0 *. lfn_delay in
  let af =
    Qtp.Connection.config ~initial_rtt:rtt
      (agreed (Qtp.Profile.qtp_af ~g_bps:(Common.mbps (lfn_mbps /. 4.0)) ()))
  in
  let light =
    Qtp.Connection.config ~initial_rtt:rtt
      (agreed
         (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_full ] ()))
  in
  let qtp =
    Array.mapi
      (fun i config ->
        Qtp.Connection.create ~sim ~endpoint:(qtp_endpoint spans ~flow:i topo i)
          ~start_at:(start ()) config)
      [| af; light |]
  in
  let tcp =
    [|
      Tcp.Flow.create ~sim ~endpoint:(tcp_endpoint spans ~flow:2 topo 2)
        ~start_at:(start ()) ();
    |]
  in
  (qtp, tcp, None)

let trunk_g_mbps = 200.0

let trunk_bottleneck_mbps = 500.0

(* The trunk's pull source, timed per [take]: the wrapper forwards the
   mux's wake-ups to the connection's notifier. *)
let spanned_source spans src =
  match spans with
  | None -> src
  | Some s ->
      let outer =
        Qtp.Source.pull
          ~take:(fun () ->
            Span.enter s ~layer:trunk_take ~flow:0;
            match Qtp.Source.take src with
            | ok ->
                Span.leave s;
                ok
            | exception e ->
                Span.leave s;
                raise e)
          ()
      in
      Qtp.Source.set_notify src (fun () -> Qtp.Source.wake outer);
      outer

(* audit:false: the conservation digests audit the trunk rather than
   operate it; byte counts stay exact and are checked below. *)
let trunk_connection ?spans ~sim ~topo ~seed ~sim_seconds users =
  let mux = Trunk.Mux.create (Trunk.Mux.config ~audit:false ~users ()) in
  let conn =
    Qtp.Connection.create ~sim ~endpoint:(qtp_endpoint spans ~flow:0 topo 0)
      ~source:(spanned_source spans (Trunk.Mux.source mux))
      (Qtp.Connection.config ~initial_rtt:0.2
         (agreed (Qtp.Profile.qtp_af ~g_bps:(Common.mbps trunk_g_mbps) ())))
  in
  Trunk.Mux.attach mux ~conn
    ~seg_payload:(1500 - Packet.Header.data_header_bytes);
  (* Offer a quarter more than the reservation can carry in the run, so
     the trunk stays backlogged without admission dominating. *)
  let per_user =
    int_of_float (Common.mbps trunk_g_mbps *. sim_seconds /. 8.0)
    * 5 / 4 / users
  in
  ignore
    (Trunk.Mux.feed mux ~sim ~workloads:(Array.make users per_user) ~seed
       ~stop_at:sim_seconds ()
      : int array);
  ([| conn |], [||], Some mux)

(* Build a workload's topology and population.  [tracer] is installed
   between the two, before any event is scheduled. *)
let setup ?spans ?tracer ~seed w =
  let t0 = Span.now () in
  let sim, topo =
    match w.shape with
    | Mix n ->
        Common.af_dumbbell ~seed ~n_flows:n
          ~bottleneck_mbps:(float_of_int n)
          ~committed_mbps:
            (Array.init n (fun i -> if i < n / 3 then 0.4 else 0.0))
          ()
    | Lfn ->
        let sim = Engine.Sim.create ~seed () in
        (sim, lfn_topology sim)
    | Trunk _ ->
        Common.af_dumbbell ~seed ~n_flows:1
          ~bottleneck_mbps:trunk_bottleneck_mbps
          ~committed_mbps:[| trunk_g_mbps |] ()
  in
  let t1 = Span.now () in
  Engine.Sim.set_tracer sim tracer;
  let qtp, tcp, mux =
    match w.shape with
    | Mix n -> mix_connections ?spans ~sim ~topo n
    | Lfn -> lfn_connections ?spans ~sim ~topo ()
    | Trunk users ->
        trunk_connection ?spans ~sim ~topo ~seed
          ~sim_seconds:w.sim_seconds users
  in
  let t2 = Span.now () in
  {
    sim;
    bottleneck = topo.Netsim.Topology.bottleneck;
    qtp;
    tcp;
    mux;
    topology_ns = t1 - t0;
    connections_ns = t2 - t1;
  }

(* Payload bytes delivered in order: the connections' goodput series,
   or the trunk users' demultiplexed bytes. *)
let delivered_bytes inst =
  match inst.mux with
  | Some mux ->
      let total = ref 0 in
      for user = 0 to Trunk.Mux.users mux - 1 do
        total := !total + Trunk.Mux.delivered_bytes mux ~user
      done;
      !total
  | None ->
      let sum f a =
        Array.fold_left (fun n x -> n + Stats.Series.total_bytes (f x)) 0 a
      in
      sum Qtp.Connection.goodput inst.qtp
      + sum Tcp.Flow.goodput_series inst.tcp

(* ------------------------------------------------------------------ *)
(* Output checks. *)

type checks = {
  mutable run : int;
  mutable failed : int;
  mutable first : string option;  (** what the first failed check was *)
}

let checks () = { run = 0; failed = 0; first = None }

let check c ok what =
  c.run <- c.run + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if c.first = None then c.first <- Some what
  end

(* Check a finished run.  A run that [raised] fails every check. *)
let verify ?(raised = false) c inst =
  let check c ok what = check c ((not raised) && ok) what in
  Array.iter
    (fun conn ->
      check c
        (match Qtp.Connection.state conn with
        | Qtp.Connection.Failed _ -> false
        | _ -> true)
        "a QTP connection ended in Failed";
      check c
        (Qtp.Connection.delivered conn <= Qtp.Connection.data_sent conn)
        "a QTP connection delivered more segments than it sent")
    inst.qtp;
  (let q = Netsim.Link.qdisc inst.bottleneck in
   let s = Netsim.Qdisc.stats q in
   let open Netsim.Qdisc in
   check c
     (s.offered = s.accepted + s.dropped)
     "bottleneck: offered <> accepted + dropped";
   check c
     (s.accepted = s.dequeued + length_pkts q)
     "bottleneck: accepted <> dequeued + queued");
  (match inst.mux with
  | None -> ()
  | Some mux ->
      for user = 0 to Trunk.Mux.users mux - 1 do
        check c
          (Trunk.Mux.delivered_bytes mux ~user
          <= Trunk.Mux.shipped_bytes mux ~user)
          "trunk: a user received more bytes than were shipped"
      done;
      check c
        (Trunk.Mux.junk_bytes mux = 0)
        "trunk: the demultiplexer skipped junk bytes");
  check c (delivered_bytes inst > 0) "no payload byte was delivered"
