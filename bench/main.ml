(* Microbenchmarks (Bechamel): one [Test.make] per computational
   kernel the protocols exercise per packet or per feedback, so the
   cost-model claims (QTP_light's cheap receiver, the sender-side
   reconstruction price) can be checked against real ns/op numbers.

   End-to-end cost is measured by perfbench/ (workloads and metrics in
   BENCHMARK.json, method in perfbench/README.md); the experiment tables
   come from bin/vtp_experiments.

   Usage:
     dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Microbenchmark subjects *)

let bench_equation =
  Test.make ~name:"tfrc.equation.rate"
    (Staged.stage @@ fun () ->
     ignore (Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:0.02))

let bench_equation_inverse =
  Test.make ~name:"tfrc.equation.inverse"
    (Staged.stage @@ fun () ->
     ignore (Tfrc.Equation.loss_rate_for ~s:1500 ~r:0.1 ~target:1e6))

(* The standard receiver's steady-state duty cycle over 1000 packets
   with 1% holes: per-packet history maintenance plus a loss-event-rate
   recomputation at every feedback epoch (one per 50-packet "RTT"). *)
let bench_loss_history =
  Test.make ~name:"recv.std.1000pkts(duty cycle)"
    (Staged.stage @@ fun () ->
     let lh = Tfrc.Loss_history.create () in
     for i = 0 to 999 do
       if i mod 100 <> 99 then
         Tfrc.Loss_history.on_packet lh ~seq:(Packet.Serial.of_int i)
           ~arrival:(float_of_int i *. 0.001)
           ~rtt:0.05 ~is_retx:false;
       if i mod 50 = 49 then ignore (Tfrc.Loss_history.loss_event_rate lh)
     done)

(* The light receiver's duty cycle on the same arrival pattern: O(1)
   tracking per packet, one SACK render per epoch, and the sender's
   forward point pruning abandoned holes (which keeps the range list
   bounded, as the protocol guarantees). *)
let bench_rcv_tracker =
  Test.make ~name:"recv.light.1000pkts(duty cycle)"
    (Staged.stage @@ fun () ->
     let tr = Sack.Rcv_tracker.create ~deliver:ignore () in
     for i = 0 to 999 do
       if i mod 100 <> 99 then
         Sack.Rcv_tracker.on_data tr ~seq:(Packet.Serial.of_int i);
       if i mod 50 = 49 then begin
         ignore (Sack.Rcv_tracker.sack_blocks tr);
         Sack.Rcv_tracker.apply_fwd_point tr (Packet.Serial.of_int (i - 49))
       end
     done)

(* Both scoreboard rows price the streaming digest (the production
   entry point); the list-building wrapper survives only as the parity
   oracle in the tests. *)
let ignore_cover ~seq:_ ~sent_at:_ ~was_retx:_ = ()

let bench_scoreboard =
  Test.make ~name:"sack.scoreboard.1000pkts+fb"
    (Staged.stage @@ fun () ->
     let sb = Sack.Scoreboard.create () in
     for i = 0 to 999 do
       Sack.Scoreboard.on_send sb ~seq:(Packet.Serial.of_int i)
         ~now:(float_of_int i *. 0.001)
         ~size:1500 ~is_retx:false
     done;
     for k = 0 to 9 do
       ignore
         (Sack.Scoreboard.iter_feedback sb
            ~cum_ack:(Packet.Serial.of_int (100 * (k + 1)))
            ~blocks:[] ~reo_wnd:0.0 ~on_ack:ignore_cover ~on_sack:ignore_cover
            ~on_lost:ignore)
     done)

(* The LFN window: 30000 packets in flight (ring pre-sized, as an LFN
   sender would), then ten SACK feedbacks of the shape the 1000-packet
   row uses — a 100-packet cumulative advance plus three fresh blocks
   just above the ack point.  The run-length scoreboard merges each
   feedback in O(log runs + newly-covered), never touching the other
   ~29k in-flight packets; the per-packet representation walked the
   whole window.  Serials and block lists are prebuilt so the measured
   loop prices only scoreboard work. *)
let[@vtp.ambient] bench_scoreboard_30k =
  (* ambient: the prebuilt serial/block arrays are written once here
     and only read by the measured closure. *)
  Test.make ~name:"sack.scoreboard.30000pkts+fb"
    (let n = 30_000 in
     let seqs = Array.init n Packet.Serial.of_int in
     let cums = Array.init 10 (fun k -> Packet.Serial.of_int (100 * (k + 1))) in
     let blocks =
       Array.init 10 (fun k ->
           let base = (100 * (k + 1)) + 50 in
           List.init 3 (fun j ->
               {
                 Packet.Header.block_start =
                   Packet.Serial.of_int (base + (j * 40));
                 block_end = Packet.Serial.of_int (base + (j * 40) + 20);
               }))
     in
     Staged.stage @@ fun () ->
     let sb = Sack.Scoreboard.create ~capacity:n () in
     for i = 0 to n - 1 do
       Sack.Scoreboard.on_send sb ~seq:seqs.(i)
         ~now:(float_of_int i *. 1e-5)
         ~size:1500 ~is_retx:false
     done;
     for k = 0 to 9 do
       ignore
         (Sack.Scoreboard.iter_feedback sb ~cum_ack:cums.(k)
            ~blocks:blocks.(k) ~reo_wnd:0.0 ~on_ack:ignore_cover ~on_sack:ignore_cover
            ~on_lost:ignore)
     done)

(* A fragmented large window, the lfn_bulk shape: every other packet
   of 1000 SACKed (500 runs, the holes inferred lost), then 100
   feedbacks that each extend the top block by one packet.  Loss
   inference visits only what a feedback changed, so the 100 feedbacks
   cost less than building the window; a walk over every hole per
   feedback would make this row grow with the run count. *)
let block a b =
  {
    Packet.Header.block_start = Packet.Serial.of_int a;
    block_end = Packet.Serial.of_int b;
  }

let[@vtp.ambient] bench_scoreboard_fragmented =
  (* ambient: the prebuilt serial/block arrays are written once here
     and only read by the measured closure. *)
  Test.make ~name:"sack.scoreboard.fragmented+fb"
    (let n = 1000 and fbs = 100 in
     let seqs = Array.init (n + fbs) Packet.Serial.of_int in
     let alternate =
       List.init (n / 2) (fun i -> block ((2 * i) + 1) ((2 * i) + 2))
     in
     let tops = Array.init fbs (fun k -> [ block (n - 1) (n + k + 1) ]) in
     Staged.stage @@ fun () ->
     let sb = Sack.Scoreboard.create ~capacity:(n + fbs) () in
     for i = 0 to n + fbs - 1 do
       Sack.Scoreboard.on_send sb ~seq:seqs.(i)
         ~now:(float_of_int i *. 1e-5)
         ~size:1500 ~is_retx:false
     done;
     ignore
       (Sack.Scoreboard.iter_feedback sb ~cum_ack:seqs.(0) ~blocks:alternate
          ~reo_wnd:0.0 ~on_ack:ignore_cover ~on_sack:ignore_cover ~on_lost:ignore);
     for k = 0 to fbs - 1 do
       ignore
         (Sack.Scoreboard.iter_feedback sb ~cum_ack:seqs.(0) ~blocks:tops.(k)
            ~reo_wnd:0.0 ~on_ack:ignore_cover ~on_sack:ignore_cover ~on_lost:ignore)
     done)

(* One SACK report from a receiver holding 500 out-of-order ranges
   whose recency rises with sequence number, as in a large-window
   transfer: the report reads the four newest arrival entries. *)
let[@vtp.ambient] bench_sack_blocks =
  (* ambient: the tracker is filled once here; the measured closure
     only reads it (a report drops dead arrival entries, and this
     tracker holds none). *)
  Test.make ~name:"sack.rcv_tracker.sack_blocks.500ranges"
    (let tr = Sack.Rcv_tracker.create ~deliver:ignore () in
     for i = 1 to 500 do
       Sack.Rcv_tracker.on_data tr ~seq:(Packet.Serial.of_int (2 * i))
     done;
     assert (Sack.Rcv_tracker.ranges_held tr = 500);
     Staged.stage @@ fun () -> ignore (Sack.Rcv_tracker.sack_blocks tr))

let bench_reconstructor =
  Test.make ~name:"qtp.reconstruction.1000covers"
    (Staged.stage @@ fun () ->
     let lr = Qtp.Loss_reconstructor.create () in
     let batch = Qtp.Loss_reconstructor.begin_batch lr in
     for k = 0 to 989 do
       let i = if k mod 99 = 98 then k + 1 else k in
       Qtp.Loss_reconstructor.push_cover lr ~seq:(Packet.Serial.of_int i)
         ~sent_at:(float_of_int i *. 0.001) ~was_retx:false ~rtt:0.05
         ~x_recv:1e6
     done;
     Qtp.Loss_reconstructor.end_batch lr batch)

let[@vtp.ambient] bench_red =
  Test.make ~name:"netsim.red.decide"
    (let rng = Engine.Rng.create ~seed:1 in
     let red = Netsim.Red.create Netsim.Red.default_params ~rng in
     let i = ref 0 in
     Staged.stage @@ fun () ->
     incr i;
     ignore (Netsim.Red.decide red ~now:(float_of_int !i *. 1e-4) ~qlen:10))

let[@vtp.ambient] bench_token_bucket =
  Test.make ~name:"netsim.token_bucket.conform"
    (let tb = Netsim.Token_bucket.create ~rate_bps:1e6 ~burst:10000 ~now:0.0 in
     let i = ref 0 in
     Staged.stage @@ fun () ->
     incr i;
     ignore
       (Netsim.Token_bucket.conform tb
          ~now:(float_of_int !i *. 1e-4)
          ~bytes:1500))

(* The trunk framing fast path: batch-encode eight sub-frames into the
   domain-local scratch and demultiplex them back with the in-place
   iterator — the per-segment duty cycle of a loaded mux, no
   allocation either way (the property suite asserts < 1 word/op). *)
let[@vtp.ambient] bench_trunk_frame =
  Test.make ~name:"trunk.frame.pack_demux_8"
    (let buf = Trunk.Frame.scratch () in
     let payload = Bytes.make 256 'x' in
     Staged.stage @@ fun () ->
     let pos = ref 0 in
     for u = 0 to 7 do
       pos :=
         !pos
         + Trunk.Frame.encode_into buf ~pos:!pos ~user:u ~src:payload
             ~src_pos:0 ~len:256
     done;
     let seen = ref 0 in
     Trunk.Frame.iter buf ~pos:0 ~len:!pos
       ~frame:(fun ~user:_ ~off:_ ~len -> seen := !seen + len)
       ~junk:(fun ~bytes:_ -> failwith "trunk.frame bench: junk in scratch");
     assert (!seen = 8 * 256))

let bench_rng =
  Test.make ~name:"engine.rng.bits64"
    (let rng = Engine.Rng.create ~seed:7 in
     Staged.stage @@ fun () -> ignore (Engine.Rng.bits64 rng))

(* The flight recorder's per-segment cost: build the [Seg_send] event,
   then one packed journal write plus the per-flow count bump, cycling
   over 64 flows so the tag word varies like a real mixed-flow run. *)
let[@vtp.ambient] bench_trace_record =
  Test.make ~name:"trace.record_seg_send"
    (let r = Trace.Recorder.create () in
     let i = ref 0 in
     Staged.stage @@ fun () ->
     incr i;
     Trace.Recorder.record r ~flow:(!i land 63) ~at:(float_of_int !i)
       (Trace.Event.Seg_send
          { seq = Packet.Serial.of_int !i; size = 1500; retx = false }))

(* A full end-to-end simulated second of a TFRC transfer, to price the
   whole stack rather than one kernel. *)
let bench_end_to_end =
  Test.make ~name:"e2e.tfrc_1s_sim"
    (Staged.stage @@ fun () ->
     let sim = Engine.Sim.create ~seed:3 () in
     let forward =
       Netsim.Topology.spec ~rate_bps:10e6 ~delay:0.01
         ~qdisc:(fun () -> Netsim.Qdisc.droptail ~capacity_pkts:50)
         ()
     in
     let topo = Netsim.Topology.duplex_path ~sim ~forward () in
     let agreed =
       Qtp.Profile.agreed_exn (Qtp.Profile.qtp_tfrc ())
         (Qtp.Profile.anything ())
     in
     let conn =
       Qtp.Connection.create ~sim
         ~endpoint:(Netsim.Topology.endpoint topo 0)
         (Qtp.Connection.config ~initial_rtt:0.1 agreed)
     in
     Engine.Sim.run ~until:1.0 sim;
     ignore (Qtp.Connection.delivered conn))

let micro_tests =
  [
    bench_rng;
    bench_equation;
    bench_equation_inverse;
    bench_loss_history;
    bench_rcv_tracker;
    bench_scoreboard;
    bench_scoreboard_30k;
    bench_scoreboard_fragmented;
    bench_sack_blocks;
    bench_reconstructor;
    bench_red;
    bench_token_bucket;
    bench_trunk_frame;
    bench_trace_record;
    bench_end_to_end;
  ]

(* A row's slope is evidence only when the least-squares fit explains
   the samples; below this r2 the row is refused, not reported. *)
let r2_floor = 0.9

(* Whether a rep's (ns, r2) fit replaces the best so far: a clean fit
   beats a poor one, the smaller slope wins among clean fits, and the
   better fit among poor ones (kept only to print the refusal). *)
let better (ns, r2) ~than:(ns', r2') =
  match (r2 >= r2_floor, r2' >= r2_floor) with
  | true, true -> ns < ns'
  | true, false -> true
  | false, true -> false
  | false, false -> Float.compare r2 r2' > 0

(* Measure every microbenchmark, returning (name, ns/run, r2) rows
   sorted by benchmark name — [Hashtbl.iter] order is unspecified, and
   report rows must be stable across runs. *)
let measure_micro () =
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 1.0) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      (* One quota window on a virtualised host can be poisoned
         wholesale by steal time, skewing the least-squares slope 2-3x
         while the true per-run cost is unchanged.  Noise only ever
         inflates a timing, so measure each row [max_reps] times and
         keep the smallest clean estimate.  A sustained slowdown still
         yields a clean fit on an inflated slope, so every rep runs —
         there is no early exit on a good r2. *)
      let best = Hashtbl.create 4 in
      let max_reps = 3 in
      for _rep = 1 to max_reps do
        (* Isolate GC state per rep: the big-window rows churn hundreds
           of megabytes through the major heap, and the pressure would
           otherwise bleed into later samples. *)
        Gc.compact ();
        let results = Benchmark.all cfg instances test in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.iter
          (fun name ols_result ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some (x :: _) -> x
              | Some [] | None -> nan
            in
            let r2 =
              match Analyze.OLS.r_square ols_result with
              | Some r -> r
              | None -> nan
            in
            match Hashtbl.find_opt best name with
            | Some fit when not (better (ns, r2) ~than:fit) -> ()
            | _ -> Hashtbl.replace best name (ns, r2))
          analysis
      done;
      Hashtbl.iter (fun name (ns, r2) -> rows := (name, ns, r2) :: !rows) best)
    micro_tests;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows

let print_micro rows =
  let table =
    Stats.Table.create ~title:"Microbenchmarks (Bechamel, monotonic clock)"
      ~columns:
        [
          ("benchmark", Stats.Table.Left);
          ("ns/run", Stats.Table.Right);
          ("r2", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (name, ns, r2) ->
      let cost =
        if r2 >= r2_floor then Stats.Table.cell_f ~decimals:1 ns
        else Printf.sprintf "refused (r2 %.2f)" r2
      in
      Stats.Table.add_row table [ name; cost; Stats.Table.cell_f ~decimals:4 r2 ])
    rows;
  Stats.Table.print table

let () = print_micro (measure_micro ())
