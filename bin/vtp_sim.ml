(* CLI: run one ad-hoc transport-over-simulated-path scenario.

   Examples:
     vtp_sim --proto tfrc --loss 0.02
     vtp_sim --proto light --reliability partial --loss 0.05 --burstiness 0.7
     vtp_sim --proto af -g 3e6 --duration 30
     vtp_sim --proto tcp --rate 5e6 --delay 0.06
     vtp_sim --proto tfrc --loss 0.02 --seeds 20 --jobs 8   # seed sweep *)

open Cmdliner

type proto = P_tcp | P_tfrc | P_light | P_af | P_full

let proto_conv =
  let parse = function
    | "tcp" -> Ok P_tcp
    | "tfrc" -> Ok P_tfrc
    | "light" -> Ok P_light
    | "af" -> Ok P_af
    | "full" -> Ok P_full
    | s -> Error (`Msg ("unknown protocol: " ^ s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with
      | P_tcp -> "tcp"
      | P_tfrc -> "tfrc"
      | P_light -> "light"
      | P_af -> "af"
      | P_full -> "full")
  in
  Arg.conv (parse, print)

let rel_conv =
  let parse = function
    | "none" -> Ok Qtp.Capabilities.R_none
    | "partial" -> Ok Qtp.Capabilities.R_partial
    | "full" -> Ok Qtp.Capabilities.R_full
    | s -> Error (`Msg ("unknown reliability: " ^ s))
  in
  Arg.conv (parse, fun fmt m -> Qtp.Capabilities.pp_mode fmt m)

let proto =
  Arg.(value & opt proto_conv P_tfrc
       & info [ "proto" ] ~docv:"PROTO" ~doc:"tcp | tfrc | light | af | full")

let rate =
  Arg.(value & opt float 10e6 & info [ "rate" ] ~docv:"BPS" ~doc:"Link rate (b/s).")

let delay =
  Arg.(value & opt float 0.04 & info [ "delay" ] ~docv:"S" ~doc:"One-way delay (s).")

let loss =
  Arg.(value & opt float 0.0
       & info [ "loss" ] ~docv:"P"
           ~doc:"Stationary loss rate, in [0, 1]; with $(b,--burstiness), \
                 below 0.5 (above a third only with enough burstiness).")

let burstiness =
  Arg.(value & opt float 0.0
       & info [ "burstiness" ] ~docv:"B"
           ~doc:"0 = random (Bernoulli); in (0, 1] = Gilbert-Elliott \
                 burstiness.")

let g =
  Arg.(value & opt float 2e6
       & info [ "g" ] ~docv:"BPS"
           ~doc:"AF target rate for --proto af (b/s), finite and above 0.")

let duration =
  Arg.(value & opt float 30.0
       & info [ "duration" ] ~docv:"S"
           ~doc:"Simulated seconds, above 1 (throughput is measured from \
                 1 s).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let seeds =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Run the same scenario on N consecutive seeds (starting at \
              $(b,--seed)) and print one line per seed, in seed order.")

let jobs =
  Vtp_cli.jobs
    ~doc:"Worker domains for the $(b,--seeds) sweep (default \
          $(b,VTP_JOBS) if set, else the recommended domain count).  \
          Output is identical at any value."

let reliability =
  Arg.(value & opt rel_conv Qtp.Capabilities.R_none
       & info [ "reliability" ] ~docv:"MODE" ~doc:"none | partial | full (for --proto light).")

let loss_model ~loss ~burstiness rng =
  if loss <= 0.0 then Netsim.Loss_model.none
  else if burstiness <= 0.0 then Netsim.Loss_model.bernoulli ~p:loss ~rng
  else Netsim.Loss_model.gilbert ~loss ~burstiness ~rng

(* One scenario on one seed, rendered to a string so a --seeds sweep can
   run scenarios concurrently and still print in seed order. *)
let render_one ~proto ~rate ~delay ~loss ~burstiness ~g ~duration ~reliability
    ~seed =
  let loss_of = loss_model ~loss ~burstiness in
  match proto with
  | P_af ->
      let r =
        Experiments.Af_scenario.run ~seed ~g_mbps:(g /. 1e6)
          ~proto:Experiments.Af_scenario.Qtp_af ()
      in
      Format.asprintf
        "QTP_AF on the AF dumbbell: achieved %.2f Mb/s (%.0f%% of g), retx %d@."
        (r.Experiments.Af_scenario.achieved_wire_bps /. 1e6)
        (100.0 *. r.Experiments.Af_scenario.achieved_wire_bps /. g)
        r.Experiments.Af_scenario.retransmissions
  | P_tcp ->
      let sim = Engine.Sim.create ~seed () in
      let rng = Engine.Sim.split_rng sim in
      let forward =
        Netsim.Topology.spec ~rate_bps:rate ~delay
          ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
          ~loss:(fun () -> loss_of (Engine.Rng.split rng))
          ()
      in
      let topo = Netsim.Topology.duplex_path ~sim ~forward () in
      let flow =
        Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 0) ()
      in
      let goodput = Experiments.Common.tap_tcp_goodput ~sim flow in
      Engine.Sim.run ~until:duration sim;
      let s = Tcp.Flow.sender flow in
      Format.asprintf
        "TCP: goodput %.2f Mb/s over [1s,%gs); sent %d, retx %d, timeouts %d, \
         cwnd %.1f@."
        (Stats.Series.rate_bps goodput ~from_:1.0 ~until:duration /. 1e6)
        duration
        (Tcp.Tcp_sender.segments_sent s)
        (Tcp.Tcp_sender.retransmits s)
        (Tcp.Tcp_sender.timeouts s)
        (Tcp.Tcp_sender.cwnd s)
  | P_tfrc | P_light | P_full ->
      let sim = Engine.Sim.create ~seed () in
      let rng = Engine.Sim.split_rng sim in
      let forward =
        Netsim.Topology.spec ~rate_bps:rate ~delay
          ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
          ~loss:(fun () -> loss_of (Engine.Rng.split rng))
          ()
      in
      let topo = Netsim.Topology.duplex_path ~sim ~forward () in
      let offer, responder =
        match proto with
        | P_tfrc -> (Qtp.Profile.qtp_tfrc (), Qtp.Profile.anything ())
        | P_full -> (Qtp.Profile.qtp_full (), Qtp.Profile.anything ())
        | P_light | P_tcp | P_af ->
            ( Qtp.Profile.qtp_light ~reliability:[ reliability ] (),
              Qtp.Profile.mobile_receiver () )
      in
      let agreed = Qtp.Profile.agreed_exn offer responder in
      let endpoint, arrivals =
        Experiments.Common.probe_arrivals ~sim (Netsim.Topology.endpoint topo 0)
      in
      let conn =
        Qtp.Connection.create ~sim ~endpoint
          (Qtp.Connection.config ~initial_rtt:0.2 agreed)
      in
      Engine.Sim.run ~until:duration sim;
      Format.asprintf
        "%a: throughput %.2f Mb/s over [1s,%gs); sent %d, retx %d, delivered \
         %d, skipped %d, p=%.4f@."
        Qtp.Capabilities.pp_agreed agreed
        (Stats.Series.rate_bps arrivals ~from_:1.0 ~until:duration /. 1e6)
        duration
        (Qtp.Connection.data_sent conn)
        (Qtp.Connection.retransmissions conn)
        (Qtp.Connection.delivered conn)
        (Qtp.Connection.skipped conn)
        (Qtp.Connection.sender_loss_estimate conn)

(* Flags are checked before any run: an out-of-range value is a usage
   error (exit 124), not an exception or a nonsense report mid-run.
   Throughput is measured over [1 s, duration), so a run must last
   longer than 1 s. *)
let check_numbers ~rate ~delay ~g ~duration ~seeds =
  if not (Float.is_finite rate && rate > 0.0) then
    Error (Printf.sprintf "--rate %g is not a finite rate above 0" rate)
  else if not (Float.is_finite g && g > 0.0) then
    Error (Printf.sprintf "-g %g is not a finite rate above 0" g)
  else if not (Float.is_finite delay && delay >= 0.0) then
    Error (Printf.sprintf "--delay %g is not a finite delay of 0 or more" delay)
  else if not (Float.is_finite duration && duration > 1.0) then
    Error
      (Printf.sprintf
         "--duration %g is not a finite time above 1 s (throughput is \
          measured from 1 s)"
         duration)
  else if seeds < 1 then Error (Printf.sprintf "--seeds %d is below 1" seeds)
  else Ok ()

(* Past the loss flags' own ranges, the loss model's constructor is the
   judge. *)
let check_loss ~loss ~burstiness =
  if not (loss >= 0.0 && loss <= 1.0) then
    Error (Printf.sprintf "--loss %g is outside [0, 1]" loss)
  else if not (burstiness >= 0.0 && burstiness <= 1.0) then
    Error (Printf.sprintf "--burstiness %g is outside [0, 1]" burstiness)
  else
    match loss_model ~loss ~burstiness (Engine.Rng.create ~seed:0) with
    | (_ : Netsim.Loss_model.t) -> Ok ()
    | exception Invalid_argument msg ->
        Error
          (Printf.sprintf "--loss %g --burstiness %g: %s" loss burstiness msg)

let run proto rate delay loss burstiness g duration seed seeds jobs reliability
    =
  match
    Result.bind (check_numbers ~rate ~delay ~g ~duration ~seeds)
      (fun () -> check_loss ~loss ~burstiness)
  with
  | Error msg -> `Error (true, msg)
  | Ok () ->
      let render seed =
        render_one ~proto ~rate ~delay ~loss ~burstiness ~g ~duration
          ~reliability ~seed
      in
      (if seeds <= 1 then print_string (render seed)
       else
         Engine.Pool.map ?jobs render (Array.init seeds (fun i -> seed + i))
         |> Array.iteri (fun i s -> Printf.printf "[seed %d] %s" (seed + i) s));
      `Ok ()

let cmd =
  let doc = "Run one transport scenario on the VTP network simulator." in
  Cmd.v (Cmd.info "vtp_sim" ~doc)
    Term.(
      ret
        (const run $ proto $ rate $ delay $ loss $ burstiness $ g $ duration
        $ seed $ seeds $ jobs $ reliability))

let () = exit (Cmd.eval cmd)
