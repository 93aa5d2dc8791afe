type entry = {
  id : string;
  title : string;
  claim : string;
  run : seed:int -> Stats.Table.t;
}

let all =
  [
    {
      id = "e1";
      title = "AF bandwidth assurance vs negotiated target";
      claim =
        "§4: QTP_AF obtains the negotiated QoS whereas TCP fails to deliver \
         it";
      run = (fun ~seed -> E1_af_assurance.run ~seed ());
    };
    {
      id = "e2";
      title = "AF assurance vs excess load";
      claim = "§4: the assurance holds under various network conditions";
      run = (fun ~seed -> E2_af_load_sweep.run ~seed ());
    };
    {
      id = "e3";
      title = "Throughput smoothness";
      claim = "§3: TFRC offers the smooth throughput multimedia requires";
      run = (fun ~seed -> E3_smoothness.run ~seed ());
    };
    {
      id = "e4";
      title = "TCP friendliness";
      claim = "§2/§3: TFRC trades fairly against TCP";
      run = (fun ~seed -> E4_friendliness.run ~seed ());
    };
    {
      id = "e5";
      title = "Receiver processing and communication load";
      claim = "§3: QTP_light dramatically decreases the receiver load";
      run = (fun ~seed -> E5_receiver_load.run ~seed ());
    };
    {
      id = "e6";
      title = "Sender-side estimator fidelity";
      claim =
        "§3: the shifted (sender-side) loss estimation reproduces the \
         receiver-side computation";
      run = (fun ~seed -> E6_estimator_fidelity.run ~seed ());
    };
    {
      id = "e7";
      title = "Selfish receiver protection";
      claim = "§3: QTP_light is robust against selfish receivers";
      run = (fun ~seed -> E7_selfish_receiver.run ~seed ());
    };
    {
      id = "e8";
      title = "Reliability modes";
      claim =
        "§1/§3: partial/full reliability is negotiable and selective \
         retransmission is efficient";
      run = (fun ~seed -> E8_reliability_modes.run ~seed ());
    };
    {
      id = "e9";
      title = "Wireless-style loss";
      claim =
        "§2: rate-controlled congestion control behaves well over \
         wireless/multi-hop paths where TCP is poor";
      run = (fun ~seed -> E9_wireless.run ~seed ());
    };
    {
      id = "e10";
      title = "Composition/negotiation matrix";
      claim = "§1: features are negotiated between the transport entities";
      run = (fun ~seed -> E10_composition.run ~seed ());
    };
    {
      id = "e11";
      title = "Multiple reserved flows in one AF class";
      claim =
        "§4 extension: every reservation multiplexed into the class is \
         honoured for QTP_AF, none for TCP";
      run = (fun ~seed -> E11_multi_af.run ~seed ());
    };
    {
      id = "e12";
      title = "Handshake robustness";
      claim =
        "§1 hardening: negotiation completes (or fails cleanly) over lossy \
         paths";
      run = (fun ~seed -> E12_handshake.run ~seed ());
    };
    {
      id = "e13";
      title = "Standing queue in deep buffers";
      claim =
        "§3 extension: the equation-driven sender keeps the standing queue \
         (and thus path delay) far below TCP's buffer-filling sawtooth";
      run = (fun ~seed -> E13_queue_dynamics.run ~seed ());
    };
    {
      id = "e14";
      title = "ECN: congestion signalling without loss";
      claim =
        "extension: negotiated RFC 3168 marking replaces drops on both \
         feedback planes — same throughput, no retransmissions";
      run = (fun ~seed -> E14_ecn.run ~seed ());
    };
    {
      id = "e15";
      title = "Feedback-path loss robustness";
      claim =
        "§3 hardening: the light plane's cumulative SACK survives lossy \
         reverse paths";
      run = (fun ~seed -> E15_feedback_loss.run ~seed ());
    };
    {
      id = "e16";
      title = "Parking-lot multi-bottleneck fairness";
      claim =
        "§2 extension: the long flow's multi-bottleneck penalty, TFRC vs TCP";
      run = (fun ~seed -> E16_parking_lot.run ~seed ());
    };
    {
      id = "e17";
      title = "Large-BDP profile mixes over long-fat networks";
      claim =
        "extension: the negotiated services (AF assurance, light plane, \
         full reliability) survive 250..500 ms RTTs with thousands of \
         packets in flight — the run-length SACK/TFRC fast path at scale";
      run = (fun ~seed -> E17_lfn.run ~seed ());
    };
    {
      id = "e18";
      title = "Handover rate policies across heterogeneous paths";
      claim =
        "extension (Mehani et al.): an informed rate re-seed recovers the \
         new path's throughput faster than a slow-start reset and avoids \
         Keep's post-downgrade loss burst, while the gTFRC floor survives \
         the move";
      run = (fun ~seed -> E18_handover.run ~seed ());
    };
    {
      id = "e19";
      title = "Handover under in-network faults";
      claim =
        "extension: full reliability survives mid-connection migration — \
         including a hard cut that drops the whole flight — under \
         reordering, duplication and corruption";
      run = (fun ~seed -> E19_handover_faults.run ~seed ());
    };
    {
      id = "e20";
      title = "Trunked flow aggregation vs per-flow TCP";
      claim =
        "extension (TCP-trunking): one gTFRC connection fronting N user \
         micro-flows holds the negotiated aggregate g that N per-flow TCP \
         reservations cannot, and DRR keeps the users' shares near-equal";
      run = (fun ~seed -> E20_trunk.run ~seed ());
    };
    {
      id = "a1";
      title = "Ablation: loss-event grouping";
      claim = "design choice: RTT-window grouping of losses";
      run = (fun ~seed -> Ablations.loss_event_grouping ~seed ());
    };
    {
      id = "a2";
      title = "Ablation: history discounting";
      claim = "design choice: RFC 3448 §5.5 discounting";
      run = (fun ~seed -> Ablations.history_discounting ~seed ());
    };
    {
      id = "a3";
      title = "Ablation: SACK block budget";
      claim = "design choice: blocks per light-plane report";
      run = (fun ~seed -> Ablations.sack_block_budget ~seed ());
    };
    {
      id = "a4";
      title = "Ablation: oscillation damping";
      claim = "design choice: RFC 3448 §4.5 instantaneous-rate braking";
      run = (fun ~seed -> Ablation_damping.run ~seed ());
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* One experiment, rendered to a string.  Runs inside a pool worker:
   the checker and the flight recorder are ambient {e per domain}, so
   concurrent entries never share them. *)
let render_entry ~seed ~format ~checked ~trace e =
  let buf = Buffer.create 1024 in
  let out = Format.formatter_of_buffer buf in
  let table () =
    let tbl, recorder =
      Common.with_trace ~trace (fun () ->
          Common.with_checked ~checked (fun () -> e.run ~seed))
    in
    (* The trace summary goes only to the human-readable format so
       CSV output stays machine-parseable. *)
    (match (recorder, format) with
    | Some r, `Table ->
        Format.fprintf out "   trace: %d events over %d flows, digest %s@."
          (Trace.Recorder.events r)
          (List.length (Trace.Recorder.flows r))
          (Trace.Export.digest r)
    | Some _, `Csv | None, _ -> ());
    tbl
  in
  (match format with
  | `Table ->
      Format.fprintf out "@.== %s: %s@.   claim: %s@.@." e.id e.title e.claim;
      Format.fprintf out "%s@." (Stats.Table.render (table ()))
  | `Csv -> Format.fprintf out "%s@." (Stats.Table.to_csv (table ())));
  Format.pp_print_flush out ();
  Buffer.contents buf

let run_all ?(seed = 42) ?ids ?(format = `Table) ?(checked = false)
    ?(trace = false) ?jobs ~out () =
  let selected =
    match ids with
    | None -> all
    | Some ids -> List.filter (fun e -> List.mem e.id ids) all
  in
  (* Fan the entries out but emit in registry order; an entry's
     exception (e.g. an invariant violation under ~checked) is caught
     here rather than by [Engine.Pool.map], so it is re-raised only
     after every earlier entry's output is printed and the bytes up to
     the failure match a sequential run's. *)
  let rendered =
    Engine.Pool.map ?jobs
      (fun e ->
        try Ok (render_entry ~seed ~format ~checked ~trace e)
        with exn -> Error exn)
      (Array.of_list selected)
  in
  Array.iter
    (function
      | Ok s ->
          Format.pp_print_string out s;
          Format.pp_print_flush out ()
      | Error exn -> raise exn)
    rendered
