(* The simulator benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--smoke] [--out DIR] [--check-names BENCHMARK.json]

   The workload is built from the seed and run repeatedly for S seconds
   (at least once); every run's outputs are checked.  One workload per
   process, so the process's heap high-water mark is its own.  With
   --trace 0 it reports the end-to-end metrics, with tracing off.  With
   --trace 1 it alternates untraced runs with runs whose layer
   boundaries are timed by spans, plus one run that records the
   engine's operation stream, and reports the per-layer metrics.  Every
   metric is printed by name with its unit; the last line of standard
   output is one JSON object {"correct", "attempted", "failed",
   "metrics"}.  A full report (and, traced, the raw spans) is written
   under DIR.  --smoke cuts the simulation to 1/50 of its length (at
   least 0.3 simulated seconds).  --check-names fails the invocation
   unless it emitted exactly the metrics the given BENCHMARK.json
   names.

   Exit status: 0 when every check passed, 1 when one failed, 2 on a
   usage error. *)

open Perfbench

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let seconds_of_ns ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* One run: set up, run to the horizon, check. *)

type run = {
  topology_ns : int;
  connections_ns : int;
  run_ns : int;
  corrected_ns : float;  (** [run_ns] corrected to the idle host *)
  events : int;
  delivered : int;
  peak_words : int;
  alloc_words : float;
  promoted_words : float;
  majors : int;
  trace_events : int;
  segments : int;
  counters : metric list;
}

(* Per-layer counters read off the finished simulation. *)
let counters ~sim_seconds (inst : Workloads.instance) =
  let link = inst.Workloads.bottleneck in
  let sum f a = float_of_int (Array.fold_left (fun n x -> n + f x) 0 a) in
  let stats = Netsim.Qdisc.stats (Netsim.Link.qdisc link) in
  let qdisc f = float_of_int (f stats) in
  let qtp f = sum f inst.Workloads.qtp in
  let mux f =
    match inst.Workloads.mux with Some t -> float_of_int (f t) | None -> 0.0
  in
  let data = qtp Qtp.Connection.data_sent in
  [
    m "netsim.bottleneck.drop_ratio" "ratio"
      (ratio
         (qdisc (fun s -> s.Netsim.Qdisc.dropped))
         (qdisc (fun s -> s.Netsim.Qdisc.offered)));
    m "netsim.bottleneck.ce_marked" "count"
      (qdisc (fun s -> s.Netsim.Qdisc.ce_marked));
    m "netsim.bottleneck.utilisation" "ratio"
      (Netsim.Link.utilisation link ~over:sim_seconds);
    m "qtp.retx_ratio" "ratio"
      (ratio (qtp Qtp.Connection.retransmissions) data);
    m "qtp.feedback_per_data" "ratio"
      (ratio (qtp Qtp.Connection.feedback_packets) data);
    m "trunk.frames_per_segment" "ratio"
      (ratio (mux Trunk.Mux.frames_packed) (mux Trunk.Mux.segments_packed));
    m "trunk.rejected_bytes" "B" (mux Trunk.Mux.rejected);
  ]

(* Slices of about 20 ms of wall time: short enough to follow the
   host's speed, long enough that the kernels after each add ~4%. *)
let slice_ns = 20_000_000

(* Run [sim] to [until] in slices, each timed by {!Host.timed}: the
   wall and corrected times in ns.  Running to a horizon in steps is the
   same simulation as running to it at once; the twin checks hold every
   run to that. *)
let run_sliced sim ~until =
  let rec go t dt wall corrected =
    if t >= until then (wall, corrected)
    else
      let t' = Float.min until (t +. dt) in
      let ns, c = Host.timed (fun () -> Engine.Sim.run ~until:t' sim) in
      let dt =
        if ns < slice_ns / 2 then dt *. 2.0
        else if ns > 2 * slice_ns then dt /. 2.0
        else dt
      in
      go t' dt (wall + ns) (corrected +. c)
  in
  go 0.0 (until /. 1000.0) 0 0.0

(* Peak major heap is sampled at the end of every major cycle (and once
   after).  The OCaml 5 runtime never gives heap back, so it is the
   process's high-water mark: only an invocation's first run, made
   before anything else, measures a peak of its own. *)
let one_run ?spans ?tracer ?(recorded = false) ~seed (w : Workloads.t)
    checks =
  Gc.compact ();
  let peak = ref 0 in
  let sample () =
    let s = Gc.quick_stat () in
    if s.Gc.heap_words > !peak then peak := s.Gc.heap_words
  in
  let before = Gc.quick_stat () in
  let alarm = Gc.create_alarm sample in
  let body () =
    let inst = Workloads.setup ?spans ?tracer ~seed w in
    match run_sliced inst.Workloads.sim ~until:w.Workloads.sim_seconds with
    | times -> (inst, Ok times)
    | exception e -> (inst, Error e)
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Gc.delete_alarm alarm)
      (fun () ->
        match
          if recorded then
            let r, recorder = Trace.Recorder.with_recorder body in
            (r, Trace.Recorder.events recorder)
          else (body (), 0)
        with
        | r -> Ok r
        | exception e -> Error e)
  in
  match outcome with
  | Error e ->
      Workloads.check checks false ("set-up raised " ^ Printexc.to_string e);
      None
  | Ok ((inst, Error e), _) ->
      if checks.Workloads.first = None then
        checks.Workloads.first <- Some ("run raised " ^ Printexc.to_string e);
      Workloads.verify ~raised:true checks inst;
      None
  | Ok ((inst, Ok (run_ns, corrected_ns)), trace_events) ->
      sample ();
      let after = Gc.quick_stat () in
      Workloads.verify checks inst;
      let words s =
        s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
      in
      Some
        {
          topology_ns = inst.Workloads.topology_ns;
          connections_ns = inst.Workloads.connections_ns;
          run_ns;
          corrected_ns;
          events = Engine.Sim.executed inst.Workloads.sim;
          delivered = Workloads.delivered_bytes inst;
          peak_words = !peak;
          alloc_words = words after -. words before;
          promoted_words = after.Gc.promoted_words -. before.Gc.promoted_words;
          majors = after.Gc.major_collections - before.Gc.major_collections;
          trace_events;
          segments =
            (match inst.Workloads.mux with
            | Some mux -> Trunk.Mux.segments_packed mux
            | None -> 0);
          counters = counters ~sim_seconds:w.Workloads.sim_seconds inst;
        }

(* Same seed, same simulation: every run must reproduce the first's
   event count and delivered bytes, whatever was timed around it. *)
let twin checks ~what (a : run) (b : run) =
  Workloads.check checks (a.events = b.events) (what ^ ": event count differs");
  Workloads.check checks
    (a.delivered = b.delivered)
    (what ^ ": delivered bytes differ")

(* [f] until another call, at the last one's pace, would end past
   [deadline] (at least one call). *)
let runs_until ~deadline f =
  let rec go acc =
    let t0 = Span.now () in
    let acc = match f () with Some r -> r :: acc | None -> acc in
    let t1 = Span.now () in
    if t1 + (t1 - t0) >= deadline then List.rev acc else go acc
  in
  go []

let med f l = median (List.map f l)

let run_s r = seconds_of_ns r.run_ns

(* ------------------------------------------------------------------ *)
(* End-to-end metrics, tracing off, corrected to the idle host. *)

(* Set-ups for [ns] (at least one batch), in batches of at least
   [slice_ns] timed like a slice of a run; each batch's corrected time
   per set-up is prepended to [acc].  The collection first keeps the
   garbage of the run before from slowing them. *)
let setups ~seed ~ns w acc =
  Gc.compact ();
  let until = Span.now () + ns in
  let rec go acc =
    let count = ref 0 in
    let batch () =
      let t0 = Span.now () in
      while
        ignore (Workloads.setup ~seed w : Workloads.instance);
        incr count;
        Span.now () - t0 < slice_ns
      do
        ()
      done
    in
    let _, corrected = Host.timed batch in
    let acc = (corrected /. float_of_int !count) :: acc in
    if Span.now () >= until then acc else go acc
  in
  go acc

let end_to_end ~runs ~setups (w : Workloads.t) =
  let run_s = med (fun r -> r.corrected_ns *. 1e-9) runs in
  let delivered, peak =
    match runs with
    | r :: _ -> (float_of_int r.delivered, float_of_int r.peak_words)
    | [] -> (nan, nan)
  in
  [
    m "run_s" "s" run_s;
    m "setup_s" "s" (median setups *. 1e-9);
    m "sim_goodput_bytes_per_wall_s" "B/s" (delivered /. run_s);
    m "peak_heap_words_per_flow" "words"
      (peak /. float_of_int (Workloads.flows w));
  ]

(* Each run is followed by set-ups for a quarter of its time, so runs
   and set-ups sample the same stretches of the host's speed.  The
   first run comes before any set-up, which would raise its peak heap. *)
let measure ~seed ~seconds w checks =
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  let setup_ns = ref [] in
  let runs =
    runs_until ~deadline (fun () ->
        let r = one_run ~recorded:w.Workloads.recorded ~seed w checks in
        let ns = match r with Some r -> r.run_ns / 4 | None -> 0 in
        setup_ns := setups ~seed ~ns w !setup_ns;
        r)
  in
  let setups = !setup_ns in
  (match runs with
  | first :: rest -> List.iter (twin checks ~what:"repeat run" first) rest
  | [] -> ());
  (runs, end_to_end ~runs ~setups w)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics: spans, engine replay, counters. *)

let layer_metrics spans ~n_traced ~traced_ns i =
  let name = Workloads.layer_names.(i) in
  let calls = float_of_int (Span.calls spans i) in
  let self = float_of_int (Span.self_ns spans i) in
  ( ratio self traced_ns,
    [
      m (name ^ ".calls") "count" (ratio calls n_traced);
      m (name ^ ".ns_per_call") "ns" (ratio self calls);
      m (name ^ ".self_share") "ratio" (ratio self traced_ns);
    ] )

let measure_layers ~seed ~seconds (w : Workloads.t) checks =
  let recorded = w.Workloads.recorded in
  let spans = Span.create Workloads.layer_names in
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  let plain = ref [] and traced = ref [] in
  let keep acc = Option.iter (fun r -> acc := r :: !acc) in
  let untraced =
    runs_until ~deadline (fun () ->
        let u = one_run ~recorded ~seed w checks in
        if recorded then keep plain (one_run ~seed w checks);
        keep traced (one_run ~spans ~recorded ~seed w checks);
        u)
  in
  let ops = Oprec.create () in
  let engine_run =
    one_run ~tracer:(Oprec.record ops) ~recorded ~seed w checks
  in
  let replay_pops, replay_ns = Oprec.replay ops in
  Workloads.check checks
    (replay_pops = ops.Oprec.prefix_pops)
    "engine replay: pop count differs from the recording";
  match untraced with
  | [] -> (untraced, [], [])
  | u :: rest ->
      List.iter (twin checks ~what:"repeat run" u) rest;
      List.iter (twin checks ~what:"span-traced twin" u) !traced;
      Option.iter (twin checks ~what:"engine-recorded twin" u) engine_run;
      let run_u = med run_s untraced in
      let n_traced = float_of_int (List.length !traced) in
      let traced_ns =
        float_of_int (List.fold_left (fun n r -> n + r.run_ns) 0 !traced)
      in
      let layers =
        List.init
          (Array.length Workloads.layer_names)
          (layer_metrics spans ~n_traced ~traced_ns)
      in
      let span_share = List.fold_left (fun s (x, _) -> s +. x) 0.0 layers in
      let events = float_of_int u.events in
      let ns_per_op =
        ratio (float_of_int replay_ns) (float_of_int (Oprec.recorded ops))
      in
      let engine_share =
        ns_per_op *. float_of_int (Oprec.ops ops) *. 1e-9 /. run_u
      in
      let take_calls = float_of_int (Span.calls spans Workloads.trunk_take) in
      let per_event f = med (fun r -> f r /. float_of_int r.events) untraced in
      let metrics =
        [
          m "engine.events" "count" events;
          m "engine.events_per_sec" "1/s" (events /. run_u);
          m "engine.cancel_ratio" "ratio"
            (ratio
               (float_of_int ops.Oprec.cancels)
               (float_of_int ops.Oprec.schedules));
          m "engine.replay_ns_per_op" "ns" ns_per_op;
          m "engine.self_share" "ratio" engine_share;
        ]
        @ List.concat_map snd layers
        @ u.counters
        @ [
            m "trunk.take.hit_ratio" "ratio"
              (ratio (float_of_int u.segments *. n_traced) take_calls);
            m "trace.events" "count" (float_of_int u.trace_events);
            m "trace.overhead_share" "ratio"
              (if recorded then (run_u /. med run_s !plain) -. 1.0 else 0.0);
            m "setup.topology_s" "s"
              (med (fun r -> seconds_of_ns r.topology_ns) untraced);
            m "setup.connections_s" "s"
              (med (fun r -> seconds_of_ns r.connections_ns) untraced);
            m "gc.alloc_words_per_event" "words"
              (per_event (fun r -> r.alloc_words));
            m "gc.promoted_words_per_event" "words"
              (per_event (fun r -> r.promoted_words));
            m "gc.major_collections" "count"
              (med (fun r -> float_of_int r.majors) untraced);
            m "unattributed.self_share" "ratio"
              (1.0 -. span_share -. engine_share);
            m "bench.span_overhead_share" "ratio"
              ((med run_s !traced /. run_u) -. 1.0);
          ]
      in
      (untraced, metrics, [ spans ])

(* ------------------------------------------------------------------ *)
(* Output. *)

let json_metrics ms =
  Stats.Json.Obj
    (List.map
       (fun x ->
         ( x.name,
           Stats.Json.Obj
             [
               ("value", Stats.Json.Float x.value);
               ("unit", Stats.Json.String x.unit);
             ] ))
       ms)

(* The one-line result object; values keep every digit measured. *)
let result_line (c : Workloads.checks) ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (c.Workloads.failed = 0 && c.Workloads.run > 0)
    c.Workloads.run c.Workloads.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
              x.name x.value x.unit)
          ms))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Metric names a BENCHMARK.json lists under [section]. *)
let named_metrics file section =
  let json =
    Stats.Json.of_string (In_channel.with_open_bin file In_channel.input_all)
  in
  match Stats.Json.member section json with
  | Some (Stats.Json.List items) ->
      List.filter_map
        (fun item ->
          match Stats.Json.member "name" item with
          | Some (Stats.Json.String s) -> Some s
          | _ -> None)
        items
  | _ -> failwith (Printf.sprintf "%s: no %S list" file section)

let sorted_names ms = List.sort String.compare (List.map (fun x -> x.name) ms)

let write_report ~stem ~seed ~trace ~checks ~runs ~metrics (w : Workloads.t) =
  let c = checks in
  let oc = open_out (stem ^ ".json") in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Stats.Json.to_channel oc
        (Stats.Json.Obj
           [
             ("workload", Stats.Json.String w.Workloads.name);
             ("seed", Stats.Json.Int seed);
             ("trace", Stats.Json.Bool trace);
             ("sim_seconds", Stats.Json.Float w.Workloads.sim_seconds);
             ("flows", Stats.Json.Int (Workloads.flows w));
             ("runs", Stats.Json.Int (List.length runs));
             ("checks_run", Stats.Json.Int c.Workloads.run);
             ("checks_failed", Stats.Json.Int c.Workloads.failed);
             ( "failed_check_share",
               Stats.Json.Float
                 (ratio
                    (float_of_int c.Workloads.failed)
                    (float_of_int c.Workloads.run)) );
             ("metrics", json_metrics metrics);
             ( "run_s_samples",
               Stats.Json.List
                 (List.map
                    (fun r -> Stats.Json.Float (r.corrected_ns *. 1e-9))
                    runs) );
             ( "wall_s_samples",
               Stats.Json.List
                 (List.map (fun r -> Stats.Json.Float (run_s r)) runs) );
           ]))

let run_workload ~seed ~seconds ~trace ~out ~check_names (w : Workloads.t) =
  let checks = Workloads.checks () in
  let runs, metrics, spans =
    if trace then measure_layers ~seed ~seconds w checks
    else
      let runs, e2e = measure ~seed ~seconds w checks in
      (runs, e2e, [])
  in
  List.iter
    (fun x ->
      Workloads.check checks (Float.is_finite x.value)
        (Printf.sprintf "metric %s is not finite" x.name))
    metrics;
  Option.iter
    (fun file ->
      let section = if trace then "per_layer" else "end_to_end" in
      Workloads.check checks
        (sorted_names metrics
        = List.sort String.compare (named_metrics file section))
        (Printf.sprintf "emitted %s metrics differ from %s" section file))
    check_names;
  let failed_share =
    ratio
      (float_of_int checks.Workloads.failed)
      (float_of_int checks.Workloads.run)
  in
  List.iter
    (fun x ->
      Printf.printf "%-20s %-36s %18.6f %s\n" w.Workloads.name x.name x.value
        x.unit)
    (metrics @ [ m "failed_check_share" "ratio" failed_share ]);
  Printf.printf "%-20s %d runs, %d/%d checks failed\n" w.Workloads.name
    (List.length runs) checks.Workloads.failed checks.Workloads.run;
  Option.iter
    (Printf.eprintf "%s: first failed check: %s\n%!" w.Workloads.name)
    checks.Workloads.first;
  if out <> "" then begin
    mkdir_p out;
    let stem =
      Filename.concat out
        (Printf.sprintf "%s-seed%d-trace%d" w.Workloads.name seed
           (Bool.to_int trace))
    in
    List.iter (fun s -> Span.write_tsv s (stem ^ ".spans.tsv")) spans;
    write_report ~stem ~seed ~trace ~checks ~runs ~metrics w
  end;
  print_endline (result_line checks metrics);
  checks.Workloads.failed = 0

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
  \         [--out DIR] [--check-names BENCHMARK.json]"

let () =
  let workload = ref None in
  let seed = ref 42 in
  let seconds = ref 0.0 in
  let trace = ref false in
  let smoke = ref false in
  let out = ref (Filename.concat "perfbench" "out") in
  let check_names = ref None in
  let spec =
    [
      ( "--workload",
        Arg.String
          (fun n ->
            match Workloads.find n with
            | Some w -> workload := Some w
            | None -> raise (Arg.Bad ("unknown workload " ^ n))),
        "NAME  the workload to run: "
        ^ String.concat ", "
            (List.map (fun w -> w.Workloads.name) Workloads.all) );
      ( "--seed",
        Arg.Set_int seed,
        "N  seed of the simulations and start jitter (default 42)" );
      ( "--seconds",
        Arg.Set_float seconds,
        "S  measure for S seconds (default: one run)" );
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  report end-to-end (0) or per-layer (1) metrics" );
      ( "--smoke",
        Arg.Set smoke,
        " cut the simulation to 1/50 of its length (at least 0.3 s)" );
      ( "--out",
        Arg.Set_string out,
        "DIR  write the report and spans here (\"\" = nowhere)" );
      ( "--check-names",
        Arg.String (fun f -> check_names := Some f),
        "FILE  fail unless the metrics emitted are those FILE names" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !workload with
  | None ->
      Arg.usage spec usage;
      exit 2
  | Some w ->
      (* Smoke horizons keep 0.3 simulated seconds, by which every
         workload has delivered data. *)
      let w =
        if !smoke then
          { w with sim_seconds = Float.max (w.sim_seconds /. 50.0) 0.3 }
        else w
      in
      let ok =
        run_workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
          ~check_names:!check_names w
      in
      exit (if ok then 0 else 1)
