(* Every catalogue invariant gets a hand-built event sequence that
   violates it (and a neighbouring sequence that does not), then the
   checker is exercised end-to-end: trace replay, two full experiment
   scenarios under [~checked:true], and a deliberately mis-configured
   gTFRC floor that must be caught. *)

module I = Analysis.Invariants

let first events =
  let c = I.create () in
  List.iter (I.feed c) events;
  I.first_violation c

let invariant_of events =
  Option.map (fun (v : I.violation) -> v.I.invariant) (first events)

let check_violates name inv events =
  Alcotest.(check (option string)) name (Some inv) (invariant_of events)

let check_clean name events =
  Alcotest.(check (option string)) name None (invariant_of events)

let rate ?(at = 1.0) ?(flow = 0) ~x ?(x_calc = infinity) ?(x_recv = 1e6)
    ?(p = 0.0) ?(g = 0.0) ?cap ?(mbi = 9600.0) ?(ss = false) () =
  I.Rate
    {
      Qtp.Inspect.at;
      flow_id = flow;
      x_bps = x;
      x_calc_bps = x_calc;
      x_recv_bps = x_recv;
      p;
      g_bps = g;
      cap_bps = cap;
      mbi_floor_bps = mbi;
      slow_start = ss;
    }

let feedback ?(at = 1.0) ?(flow = 0) ?(cum = 10) ?(blocks = []) ?hi () =
  I.Feedback { at; flow; cum_ack = cum; blocks; window_hi = hi }

let test_gtfrc_floor () =
  check_violates "X under min(g, X_calc)" "gtfrc-floor"
    [ rate ~x:2e6 ~x_calc:4e6 ~x_recv:3e6 ~p:0.01 ~g:5e6 () ];
  check_clean "floor honoured"
    [ rate ~x:4e6 ~x_calc:4e6 ~x_recv:3e6 ~p:0.01 ~g:5e6 () ];
  check_clean "slow start exempt"
    [ rate ~x:2e6 ~x_calc:4e6 ~p:0.01 ~g:5e6 ~ss:true () ];
  check_clean "no reservation, no floor"
    [ rate ~x:2e6 ~x_calc:4e6 ~x_recv:3e6 ~p:0.01 () ]

let test_tfrc_rate_bounds () =
  check_violates "below one packet per t_mbi" "tfrc-rate-bounds"
    [ rate ~x:100.0 ~mbi:9600.0 () ];
  check_violates "above the negotiated ceiling" "tfrc-rate-bounds"
    [ rate ~x:2e6 ~cap:1e6 () ];
  check_violates "above 2*X_recv under loss" "tfrc-rate-bounds"
    [ rate ~x:5e6 ~x_calc:5e6 ~x_recv:1e6 ~p:0.01 () ];
  check_clean "inside all bounds"
    [ rate ~x:1.5e6 ~x_calc:2e6 ~x_recv:1e6 ~p:0.01 ~cap:1e7 () ];
  check_clean "slow start may exceed 2*X_recv freely, not the ceiling"
    [ rate ~x:5e6 ~x_recv:1e6 ~ss:true () ]

let test_sack_wellformed () =
  check_clean "disjoint blocks above cum"
    [ feedback ~cum:10 ~blocks:[ (12, 15); (17, 20) ] ~hi:25 () ];
  check_clean "recency wire order is fine"
    [ feedback ~cum:10 ~blocks:[ (17, 20); (12, 15) ] ~hi:25 () ];
  check_violates "empty block" "sack-wellformed"
    [ feedback ~blocks:[ (12, 12) ] ~hi:25 () ];
  check_violates "block not above cum_ack" "sack-wellformed"
    [ feedback ~cum:10 ~blocks:[ (8, 12) ] ~hi:25 () ];
  check_violates "block beyond what was sent" "sack-wellformed"
    [ feedback ~cum:10 ~blocks:[ (12, 40) ] ~hi:25 () ];
  check_violates "overlapping blocks" "sack-wellformed"
    [ feedback ~cum:10 ~blocks:[ (12, 16); (15, 20) ] ~hi:25 () ]

let test_cum_ack_monotone () =
  let fb at cum = feedback ~at ~cum () in
  check_clean "advancing cum" [ fb 1.0 5; fb 2.0 7 ];
  check_violates "regressing cum" "cum-ack-monotone" [ fb 1.0 7; fb 2.0 5 ];
  check_clean "fresh epoch resets per-flow state"
    [ fb 1.0 7; I.Epoch; fb 0.5 5 ]

let test_packet_conservation () =
  let sent u = I.Sent { at = 1.0; flow = 0; uid = u } in
  let dlv u = I.Delivered { at = 2.0; flow = 0; uid = u } in
  let drop u = I.Dropped { at = 2.0; flow = 0; uid = u } in
  check_clean "sent then delivered" [ sent 1; dlv 1; sent 2; drop 2; sent 3 ];
  check_violates "delivered but never sent" "packet-conservation" [ dlv 9 ];
  check_violates "accounted twice" "packet-conservation"
    [ sent 1; drop 1; dlv 1 ];
  check_violates "injected twice" "packet-conservation" [ sent 1; sent 1 ]

let test_checker_plumbing () =
  let c = I.create () in
  for u = 1 to 105 do
    I.feed c (I.Delivered { at = 1.0; flow = 0; uid = u })
  done;
  Alcotest.(check int) "events counted" 105 (I.events_seen c);
  Alcotest.(check int) "violations bounded by limit" 100
    (List.length (I.violations c));
  (match I.violations c with
  | { I.invariant = "packet-conservation"; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected packet-conservation violations");
  Alcotest.check_raises "check_exn raises the first violation"
    (I.Violation (Option.get (I.first_violation c)))
    (fun () -> I.check_exn c)

(* A timestamped frame trace fed in order, as a tap-driven run feeds
   the checker. *)
let test_trace_replay () =
  let sent at uid = I.Sent { at; flow = 0; uid } in
  let dlv at uid = I.Delivered { at; flow = 0; uid } in
  let drop at uid = I.Dropped { at; flow = 0; uid } in
  Alcotest.(check bool) "conserving trace passes" true
    (first [ sent 0.1 1; dlv 0.2 1; sent 0.3 2; drop 0.4 2 ] = None);
  match first [ dlv 0.1 7 ] with
  | Some v ->
      Alcotest.(check string) "conservation caught via trace"
        "packet-conservation" v.I.invariant
  | None -> Alcotest.fail "expected a violation"

(* ------------------------------------------------------------------ *)
(* End-to-end: real scenarios under the live checker. *)

let test_e1_checked () =
  let (_ : Stats.Table.t) =
    Experiments.Common.with_checked ~checked:true (fun () ->
        Experiments.E1_af_assurance.run ~seed:42 ())
  in
  ()

let test_e7_checked () =
  let (_ : Stats.Table.t) =
    Experiments.Common.with_checked ~checked:true (fun () ->
        Experiments.E7_selfish_receiver.run ~seed:42 ())
  in
  ()

(* The selfish receiver lies on the wire: its reports are rewritten
   after they leave an honest receiver.  Under the checker the run
   breaks no invariant (each rewritten frame keeps its uid, so packet
   conservation holds), and the trace shows the receiver's [Fb_sent]
   honest and the sender's [Fb_rcvd] scaled. *)
let test_selfish_lies_on_the_wire () =
  let factor = 0.25 in
  let (), recorder =
    Trace.Recorder.with_recorder (fun () ->
        Analysis.Observe.with_checker (fun checker ->
            let sim, topo =
              Experiments.Common.lossy_path ~seed:9 ~rate_mbps:10.0
                ~loss:(Experiments.Common.bernoulli 0.02)
                ()
            in
            Analysis.Observe.instrument checker topo;
            let endpoint =
              Experiments.Common.selfish_receiver ~p_factor:factor
                (Netsim.Topology.endpoint topo 0)
            in
            let agreed =
              Qtp.Profile.agreed_exn (Qtp.Profile.qtp_tfrc ())
                (Qtp.Profile.anything ())
            in
            ignore
              (Qtp.Connection.create ~sim ~endpoint
                 (Qtp.Connection.config ~initial_rtt:0.2 agreed));
            Engine.Sim.run ~until:10.0 sim;
            Alcotest.(check bool) "the checker saw the run" true
              (I.events_seen checker > 1000)))
  in
  let sent = ref [] and rcvd = ref [] in
  (match Trace.Recorder.ring recorder ~flow:0 with
  | None -> Alcotest.fail "flow 0 recorded nothing"
  | Some ring ->
      Trace.Ring.iter
        (fun { Trace.Ring.ev; _ } ->
          match ev with
          | Trace.Event.Fb_sent { p; _ } -> sent := p :: !sent
          | Trace.Event.Fb_rcvd { p; _ } -> rcvd := p :: !rcvd
          | _ -> ())
        ring);
  let sent = Array.of_list (List.rev !sent)
  and rcvd = Array.of_list (List.rev !rcvd) in
  Alcotest.(check bool) "the receiver reported a loss" true
    (Array.exists (fun p -> p > 0.0) sent);
  Alcotest.(check bool) "reports reached the sender" true
    (Array.length rcvd > 10 && Array.length rcvd <= Array.length sent);
  (* The reverse path is lossless and FIFO: the sender gets the
     receiver's reports in order, each with p scaled. *)
  Array.iteri
    (fun i p ->
      if not (Float.equal p (sent.(i) *. factor)) then
        Alcotest.failf "report %d: sender got p = %g, receiver sent %g" i p
          sent.(i))
    rcvd

(* A ceiling below the negotiated AF target makes the sender's clamp
   genuinely break the gTFRC floor (the cap is applied after the floor);
   the checker must catch the mis-configuration. *)
let test_broken_floor_caught () =
  let target = 5e6 in
  let cap = 1e6 in
  let run () =
    Experiments.Common.with_checked ~checked:true (fun () ->
        let sim, topo =
          Experiments.Common.lossy_path ~seed:7 ~rate_mbps:10.0
            ~loss:(Experiments.Common.bernoulli 0.02)
            ()
        in
        let agreed =
          Qtp.Profile.agreed_exn
            (Qtp.Profile.qtp_af ~g_bps:target ())
            (Qtp.Profile.anything ())
        in
        let conn =
          Qtp.Connection.create ~sim
            ~endpoint:(Netsim.Topology.endpoint topo 0)
            (Qtp.Connection.config ~max_rate_bps:cap agreed)
        in
        Engine.Sim.run ~until:30.0 sim;
        ignore conn)
  in
  match run () with
  | () -> Alcotest.fail "mis-configured floor went undetected"
  | exception I.Violation v ->
      Alcotest.(check string) "the floor invariant fires" "gtfrc-floor"
        v.I.invariant

let suite =
  [
    ("gtfrc-floor", `Quick, test_gtfrc_floor);
    ("tfrc-rate-bounds", `Quick, test_tfrc_rate_bounds);
    ("sack-wellformed", `Quick, test_sack_wellformed);
    ("cum-ack-monotone", `Quick, test_cum_ack_monotone);
    ("packet-conservation", `Quick, test_packet_conservation);
    ("checker plumbing", `Quick, test_checker_plumbing);
    ("trace replay", `Quick, test_trace_replay);
    ("e1 under the checker", `Slow, test_e1_checked);
    ("e7 under the checker", `Slow, test_e7_checked);
    ("selfish receiver lies on the wire", `Quick,
     test_selfish_lies_on_the_wire);
    ("broken gTFRC floor is caught", `Quick, test_broken_floor_caught);
  ]
