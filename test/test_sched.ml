(* The timer wheel against its reference.

   Engine.Sim files every event in one hierarchical timer wheel.  Its
   reference is [Heap_ref], a plain binary heap of every pending event
   in (time, seq) order.  The check records a simulation's scheduler
   operation stream (Engine.Sim.set_tracer) and replays it into a fresh
   wheel and into the reference: at every pop both must yield the same
   live event.

   - boundary behaviours of Engine.Sim, due times past the wheel's
     tick range and a refused NaN among them;
   - qcheck properties running random scheduler programs through
     Engine.Sim and the replay, one of them with due times at every
     wheel level and past its horizon;
   - the replay's own teeth: three queues, each wrong on purpose, it
     must catch, and a stream recorded too late to number its events;
   - the recorded streams of three real simulations: an AF dumbbell
     carrying QTP_AF, QTP_light and TCP flows over Poisson background,
     a mobile path through a cutting handover, and a long fat network
     with hundreds of frames in flight;
   - a white-box census property over the wheel's internal accounting. *)

(* ------------------------------------------------------------------ *)
(* The recorded stream, in flat arrays: [ops.(i)] is [op_pop],
   [op_schedule] (its due time is the next entry of [times]) or the seq
   of a cancelled event.  It is perfbench's [Oprec] encoding, kept here
   rather than shared: [Oprec] keeps a capped prefix to time, and this
   check needs the whole stream and each due time's lead on the
   clock. *)

let op_pop = -1

let op_schedule = -2

type stream = {
  mutable ops : int array;
  mutable n_ops : int;
  mutable times : float array;
  mutable n_times : int;
  mutable cancels : int;
  mutable max_lead : float;  (** furthest a due time lay past the clock *)
  mutable pending : int;
  mutable peak_pending : int;  (** most events pending at once *)
}

let push_op s v =
  if s.n_ops = Array.length s.ops then begin
    let grown = Array.make (2 * s.n_ops) 0 in
    Array.blit s.ops 0 grown 0 s.n_ops;
    s.ops <- grown
  end;
  s.ops.(s.n_ops) <- v;
  s.n_ops <- s.n_ops + 1

let push_time s x =
  if s.n_times = Array.length s.times then begin
    let grown = Array.create_float (2 * s.n_times) in
    Array.blit s.times 0 grown 0 s.n_times;
    s.times <- grown
  end;
  s.times.(s.n_times) <- x;
  s.n_times <- s.n_times + 1

(* Record [sim]'s stream from here on.  Install it before the first
   schedule: Engine.Sim numbers events in schedule order from 0, and
   the replay numbers them the same way. *)
let record sim =
  let s =
    {
      ops = Array.make 1024 0;
      n_ops = 0;
      times = Array.create_float 1024;
      n_times = 0;
      cancels = 0;
      max_lead = 0.0;
      pending = 0;
      peak_pending = 0;
    }
  in
  Engine.Sim.set_tracer sim
    (Some
       (function
       | Engine.Sim.T_schedule time ->
           push_op s op_schedule;
           push_time s time;
           s.max_lead <- Float.max s.max_lead (time -. Engine.Sim.now sim);
           s.pending <- s.pending + 1;
           s.peak_pending <- Stdlib.max s.peak_pending s.pending
       | Engine.Sim.T_cancel seq ->
           s.cancels <- s.cancels + 1;
           s.pending <- s.pending - 1;
           push_op s seq
       | Engine.Sim.T_pop ->
           s.pending <- s.pending - 1;
           push_op s op_pop));
  s

(* ------------------------------------------------------------------ *)
(* The replay.  Seqs are taken in schedule order, as Engine.Sim assigns
   them.  A cancel marks its event dead in both the queue under test
   and the reference: the queue unlinks it or drops it when it
   surfaces, the reference sheds it when it surfaces.  At each pop both
   must yield the same live seq; after the last op both are drained and
   compared the same way.  [Ok pops] holds the seqs of the stream's
   pops, in order; [Error] names the first op at which the two parted.

   The queue under test is the wheel, except in the negative controls
   below, which hand the replay a queue that is wrong on purpose.
   [remove] is Engine.Wheel.remove's contract: [true] means the record
   left the queue and may be reused. *)

type queue = {
  add : Engine.Event.t -> unit;
  remove : Engine.Event.t -> bool;
  pop_min : unit -> Engine.Event.t option;
}

let wheel () =
  let w = Engine.Wheel.create () in
  {
    add = Engine.Wheel.add w;
    remove = Engine.Wheel.remove w;
    pop_min = (fun () -> Engine.Wheel.pop_min w);
  }

exception Diverged of string

let replay_into q s =
  let times = s.times in
  let reference =
    Heap_ref.create ~compare:(fun a b ->
        match Float.compare times.(a) times.(b) with
        | 0 -> Int.compare a b
        | c -> c)
  in
  let by_seq = Array.make s.n_times (Engine.Event.make_dummy ()) in
  let dead = Bytes.make s.n_times '\000' in
  let is_dead seq = Bytes.get dead seq <> '\000' in
  let free = ref [] in
  let next_seq = ref 0 in
  let fail at fmt =
    Printf.ksprintf
      (fun msg ->
        raise
          (Diverged
             (if at < s.n_ops then Printf.sprintf "op %d: %s" at msg
              else
                Printf.sprintf "drain pop %d after the last op (%d): %s"
                  (at - s.n_ops) s.n_ops msg)))
      fmt
  in
  let rec reference_pop () =
    match Heap_ref.pop_min reference with
    | Some seq when is_dead seq -> reference_pop ()
    | r -> r
  in
  let pop at =
    match (reference_pop (), q.pop_min ()) with
    | None, None -> None
    | Some seq, Some ev when ev.Engine.Event.seq = seq ->
        Bytes.set dead seq '\001';
        free := ev :: !free;
        Some seq
    | Some seq, Some ev ->
        fail at "the queue pops seq %d (t = %.17g), the reference seq %d \
                 (t = %.17g)"
          ev.Engine.Event.seq ev.Engine.Event.time seq times.(seq)
    | Some seq, None ->
        fail at "the queue is empty, the reference pops seq %d (t = %.17g)"
          seq times.(seq)
    | None, Some ev ->
        fail at "the queue pops seq %d (t = %.17g), the reference is empty"
          ev.Engine.Event.seq ev.Engine.Event.time
  in
  let pops = ref [] in
  match
    for i = 0 to s.n_ops - 1 do
      let op = s.ops.(i) in
      if op = op_schedule then begin
        let seq = !next_seq in
        incr next_seq;
        let ev =
          match !free with
          | ev :: rest ->
              free := rest;
              ev
          | [] -> Engine.Event.make_dummy ()
        in
        ev.Engine.Event.time <- times.(seq);
        ev.Engine.Event.seq <- seq;
        ev.Engine.Event.live <- true;
        by_seq.(seq) <- ev;
        q.add ev;
        Heap_ref.add reference seq
      end
      else if op = op_pop then (
        match pop i with
        | Some seq -> pops := seq :: !pops
        | None -> fail i "a pop, but no event is pending")
      else begin
        if op >= !next_seq || is_dead op then
          fail i "a cancel of seq %d, which is not pending" op;
        Bytes.set dead op '\001';
        let ev = by_seq.(op) in
        ev.Engine.Event.live <- false;
        if q.remove ev then free := ev :: !free
      end
    done;
    let rec drain at = if pop at <> None then drain (at + 1) in
    drain s.n_ops
  with
  | () -> Ok (Array.of_list (List.rev !pops))
  | exception Diverged msg -> Error msg

let replay s = replay_into (wheel ()) s

let replay_exn s =
  match replay s with Ok pops -> pops | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Boundary behaviours. *)

let test_horizon_event_fires () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  ignore (Engine.Sim.schedule_at sim 5.0 (fun () -> fired := true));
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "event exactly at the horizon fires" true !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Engine.Sim.now sim)

let test_cancel_after_fire () =
  let sim = Engine.Sim.create () in
  let n = ref 0 in
  let h = Engine.Sim.schedule_at sim 1.0 (fun () -> incr n) in
  Engine.Sim.run sim;
  Engine.Sim.cancel sim h;
  (* The record behind [h] is recycled by the next schedule; the stale
     handle must fail its generation check rather than kill the new
     event. *)
  ignore (Engine.Sim.schedule_at sim 2.0 (fun () -> incr n));
  Engine.Sim.cancel sim h;
  Engine.Sim.run sim;
  Alcotest.(check int) "both events ran despite stale cancels" 2 !n

let test_past_rejected () =
  let sim = Engine.Sim.create () in
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         Alcotest.check_raises "past is invalid"
           (Invalid_argument "Sim.schedule_at: time 1 is before now 2")
           (fun () -> ignore (Engine.Sim.schedule_at sim 1.0 ignore))));
  Engine.Sim.run sim

let test_horizon_reached_on_early_drain () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule_at sim 1.0 ignore);
  Engine.Sim.run ~until:10.0 sim;
  Alcotest.(check (float 1e-9))
    "clock lands on horizon after queue empties" 10.0 (Engine.Sim.now sim)

(* The cursor carries into a new window at every level: event A sits on
   the last tick before a 32^l-tick boundary, B just past it, and A
   schedules C 100 µs later.  Draining A carries the cursor across the
   boundary, and B, filed at level l, must be cascaded down then, or C
   would be drained first. *)
let test_carry_every_level () =
  for l = 1 to 8 do
    let sim = Engine.Sim.create () in
    let log = ref [] in
    let boundary = 32.0 ** float_of_int l in
    let at_tick tick = (tick +. 0.5) *. 1e-6 in
    ignore
      (Engine.Sim.schedule_at sim
         (at_tick (boundary -. 1.0))
         (fun () ->
           log := "A" :: !log;
           ignore
             (Engine.Sim.schedule_after sim 100e-6 (fun () ->
                  log := "C" :: !log))));
    ignore
      (Engine.Sim.schedule_at sim
         (at_tick (boundary +. 5.0))
         (fun () -> log := "B" :: !log));
    Engine.Sim.run sim;
    Alcotest.(check (list string))
      (Printf.sprintf "order across the level-%d boundary" l)
      [ "A"; "B"; "C" ] (List.rev !log)
  done

(* Due times past the wheel's tick range: 5e12 s lies past its 2^45
   ticks of horizon, 1e300 s and infinity past the int range, and an
   event at 2 s schedules one more 1e299 s later.  They must fire in
   time order, so the clock never runs backwards, and the replay must
   agree.  A NaN time compares false both ways: it is refused, and an
   event already due at 1 s still fires. *)
let test_far_future_and_nan () =
  let sim = Engine.Sim.create () in
  let s = record sim in
  let log = ref [] in
  let note name () =
    log := Printf.sprintf "%s@%g" name (Engine.Sim.now sim) :: !log
  in
  List.iter
    (fun (name, time) -> ignore (Engine.Sim.schedule_at sim time (note name)))
    [
      ("a", 5e12);
      ("b", 1e300);
      ("c", Float.infinity);
      ("d", Float.infinity);
    ];
  ignore
    (Engine.Sim.schedule_at sim 2.0 (fun () ->
         note "e" ();
         ignore (Engine.Sim.schedule_after sim 1e299 (note "f"))));
  Engine.Sim.run sim;
  Alcotest.(check (list string))
    "time order past the tick range"
    [ "e@2"; "a@5e+12"; "f@1e+299"; "b@1e+300"; "c@inf"; "d@inf" ]
    (List.rev !log);
  Alcotest.(check (array int))
    "the reference pops the same order" [| 4; 0; 5; 1; 2; 3 |] (replay_exn s);
  let sim = Engine.Sim.create () in
  let s = record sim in
  let fired = ref false in
  ignore (Engine.Sim.schedule_at sim 1.0 (fun () -> fired := true));
  (match Engine.Sim.schedule_at sim Float.nan ignore with
  | _ -> Alcotest.fail "NaN time accepted"
  | exception Invalid_argument _ -> ());
  Engine.Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "event at 1 s fired" true !fired;
  Alcotest.(check (array int))
    "the refused NaN left no op" [| 0 |] (replay_exn s)

(* ------------------------------------------------------------------ *)
(* The replay's teeth.  Each small simulation below is replayed into
   the wheel, then into a queue that is wrong on purpose, which must be
   caught at the first pop it gets wrong, named by its op. *)

(* Three events tied at 1 s and one at 2 s, the middle tie cancelled:
   the four schedules (ops 0-3), the cancel (op 4), three pops (ops
   5-7). *)
let tie_stream () =
  let sim = Engine.Sim.create () in
  let s = record sim in
  let tied = List.init 3 (fun _ -> Engine.Sim.schedule_at sim 1.0 ignore) in
  ignore (Engine.Sim.schedule_at sim 2.0 ignore);
  Engine.Sim.cancel sim (List.nth tied 1);
  Engine.Sim.run sim;
  s

(* Seq 0 filed 1.5 s ahead (op 0) and seq 1 at 0.9 s (op 1); seq 1 pops
   (op 2) and files seq 2 at 1.9 s, 1 s ahead (op 3); seq 0 pops (op 4)
   before seq 2 (op 5). *)
let far_stream () =
  let sim = Engine.Sim.create () in
  let s = record sim in
  ignore (Engine.Sim.schedule_at sim 1.5 ignore);
  ignore
    (Engine.Sim.schedule_at sim 0.9 (fun () ->
         ignore (Engine.Sim.schedule_at sim 1.9 ignore)));
  Engine.Sim.run sim;
  s

let by_time_then (tie : int -> int -> int) (a : Engine.Event.t)
    (b : Engine.Event.t) =
  match Float.compare a.Engine.Event.time b.Engine.Event.time with
  | 0 -> tie a.Engine.Event.seq b.Engine.Event.seq
  | c -> c

let rec pop_live h =
  match Heap_ref.pop_min h with
  | Some ev when not ev.Engine.Event.live -> pop_live h
  | r -> r

(* A binary heap in [order] that keeps a cancelled event until it
   surfaces, then drops it, or pops it anyway when [pops_dead]. *)
let heap_queue ~order ~pops_dead =
  let h = Heap_ref.create ~compare:order in
  {
    add = Heap_ref.add h;
    remove = (fun _ -> false);
    pop_min =
      (fun () -> if pops_dead then Heap_ref.pop_min h else pop_live h);
  }

(* Events filed more than 1 s past the last pop wait in a far heap that
   joins the near one only when the near one runs dry: the shape of a
   wheel that skips a far slot's cascade as its cursor enters the
   slot's window. *)
let uncascaded () =
  let order = by_time_then Int.compare in
  let near = Heap_ref.create ~compare:order in
  let far = Heap_ref.create ~compare:order in
  let clock = ref 0.0 in
  let rec pop_min () =
    match pop_live near with
    | Some ev ->
        clock := ev.Engine.Event.time;
        Some ev
    | None when Heap_ref.is_empty far -> None
    | None ->
        let rec cascade () =
          match Heap_ref.pop_min far with
          | Some ev ->
              Heap_ref.add near ev;
              cascade ()
          | None -> ()
        in
        cascade ();
        pop_min ()
  in
  {
    add =
      (fun ev ->
        Heap_ref.add (if ev.Engine.Event.time -. !clock > 1.0 then far else near)
          ev);
    remove = (fun _ -> false);
    pop_min;
  }

let check_caught stream ~pops ~at queue =
  Alcotest.(check (array int)) "the wheel replays it" pops
    (replay_exn (stream ()));
  match replay_into queue (stream ()) with
  | Ok _ -> Alcotest.fail "the broken queue passed the replay"
  | Error msg ->
      let want = Printf.sprintf "op %d: " at in
      if not (String.starts_with ~prefix:want msg) then
        Alcotest.failf "want the failure at op %d, got %S" at msg

(* Ties broken latest seq first: the first pop takes seq 2. *)
let test_catches_reversed_ties () =
  check_caught tie_stream ~pops:[| 0; 2; 3 |] ~at:5
    (heap_queue ~order:(by_time_then (fun a b -> Int.compare b a))
       ~pops_dead:false)

(* A cancel that does not take: the second pop takes the cancelled
   seq 1. *)
let test_catches_cancelled_pop () =
  check_caught tie_stream ~pops:[| 0; 2; 3 |] ~at:6
    (heap_queue ~order:(by_time_then Int.compare) ~pops_dead:true)

(* Seq 0 waits in the far heap while seq 2, near, pops first. *)
let test_catches_uncascaded () =
  check_caught far_stream ~pops:[| 1; 0; 2 |] ~at:4 (uncascaded ())

(* A stream recorded from after the first schedule numbers its events
   one short of Engine.Sim's, so its cancel of Sim's seq 1 names an
   event the replay never saw scheduled. *)
let test_late_stream_refused () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule_at sim 1.0 ignore);
  let s = record sim in
  Engine.Sim.cancel sim (Engine.Sim.schedule_at sim 2.0 ignore);
  Engine.Sim.run sim;
  match replay s with
  | Ok _ -> Alcotest.fail "a stream recorded late replayed"
  | Error msg ->
      Alcotest.(check string)
        "the cancel is refused" "op 1: a cancel of seq 1, which is not pending"
        msg

(* ------------------------------------------------------------------ *)
(* Random programs.  Each runs on a fresh Engine.Sim with its stream
   recorded.  It schedules only through [schedule_at time run], which
   numbers its events in schedule order as the simulation does and logs
   each number as it fires.  The replay must pass, and the simulation
   must have fired exactly the reference's pops: the replay's own wheel
   sees no peek that stopped short of a horizon, the simulation's
   does. *)

let check_program program =
  let sim = Engine.Sim.create () in
  let s = record sim in
  let fired = ref [] in
  let next_seq = ref 0 in
  let schedule_at time run =
    let seq = !next_seq in
    incr next_seq;
    Engine.Sim.schedule_at sim time (fun () ->
        fired := seq :: !fired;
        run ())
  in
  program sim ~schedule_at;
  Engine.Sim.run sim;
  match replay s with
  | Error msg -> QCheck.Test.fail_report msg
  | Ok pops ->
      let fired = Array.of_list (List.rev !fired) in
      let n = Stdlib.min (Array.length fired) (Array.length pops) in
      let rec first i =
        if i < n && fired.(i) = pops.(i) then first (i + 1) else i
      in
      if fired <> pops then
        QCheck.Test.fail_reportf
          "Engine.Sim fired %d events, the reference popped %d, first \
           difference at pop %d"
          (Array.length fired) (Array.length pops) (first 0);
      true

(* A program is a list of (tag, arg) pairs — integers so qcheck can
   shrink both the list and the elements — decoded into schedule /
   cancel / step / run ~until operations.  Delays are
   divisions by primes, giving due times with awkward binary fractions
   that stress the wheel's 1 µs tick quantisation. *)
let random_program prog sim ~schedule_at =
  let handles = ref [] in
  let delay prime a = float_of_int a /. float_of_int prime in
  List.iter
    (fun (tag, a) ->
      match tag mod 5 with
      | 0 ->
          handles :=
            schedule_at (Engine.Sim.now sim +. delay 97 a) ignore :: !handles
      | 1 ->
          handles :=
            schedule_at (Engine.Sim.now sim +. delay 89 a) ignore :: !handles
      | 2 -> (
          match !handles with
          | [] -> ()
          | l -> Engine.Sim.cancel sim (List.nth l (a mod List.length l)))
      | 3 -> ignore (Engine.Sim.step sim : bool)
      | _ -> Engine.Sim.run ~until:(Engine.Sim.now sim +. delay 83 a) sim)
    prog

let arb_program = QCheck.(list (pair small_nat small_nat))

let prop_random_programs =
  QCheck.Test.make ~count:300 ~name:"random programs: wheel = reference replay"
    arb_program (fun prog -> check_program (random_program prog))

(* Far levels.  Delays of the random programs above are about a second
   at most, so they file at wheel levels 0 to 3 only.  Here element
   [(level, m)] is a delay of [(m + 1) / 7] level-[level] slots, one
   slot spanning 32^level ticks of 1 µs, for levels 0 to 9: level 9
   lies past the 2^45-tick horizon, in the overflow bucket.  Even
   elements are scheduled up front; each firing schedules the next odd
   one, so far slots are filed at many cursor positions and cascade
   down through every level. *)
let far_program prog sim ~schedule_at =
  let prog = Array.of_list prog in
  let delay i =
    let level, m = prog.(i) in
    float_of_int ((m mod 50) + 1)
    /. 7.0
    *. (32.0 ** float_of_int (level mod 10))
    *. 1e-6
  in
  let next_odd = ref 1 in
  let rec arm i =
    ignore
      (schedule_at
         (Engine.Sim.now sim +. delay i)
         (fun () ->
           if !next_odd < Array.length prog then begin
             let j = !next_odd in
             next_odd := j + 2;
             arm j
           end))
  in
  Array.iteri (fun i _ -> if i mod 2 = 0 then arm i) prog

(* A failure names the op where the wheel and the reference part, so
   shrinking only drops elements: shrinking each element too can run
   for minutes before it reports, which reads as a hung test run. *)
let prop_far_levels =
  QCheck.Test.make ~count:200
    ~name:"every level and the overflow: wheel = reference replay"
    (QCheck.set_shrink QCheck.Shrink.list_spine arb_program)
    (fun prog -> check_program (far_program prog))

(* ------------------------------------------------------------------ *)
(* Real traffic: three simulations built here, recorded from their
   first schedule and replayed.  Each stream must be big enough to mean
   something: 10^5 operations, 10^3 cancels (TCP's retransmission timer
   restarts, TFRC's send ticks) and at least one event filed 2 s or
   more past the clock, at wheel level 4 or higher. *)

let check_stream name s =
  Printf.printf "%s: %d ops, %d cancels, furthest lead %g s, %d pending at \
                 most\n"
    name s.n_ops s.cancels s.max_lead s.peak_pending;
  ignore (replay_exn s : int array);
  if s.n_ops < 100_000 then Alcotest.failf "%s: only %d ops" name s.n_ops;
  if s.cancels < 1_000 then
    Alcotest.failf "%s: only %d cancels" name s.cancels;
  if s.max_lead < 2.0 then
    Alcotest.failf "%s: no event filed 2 s ahead (furthest %g s)" name
      s.max_lead

let agreed offer = Qtp.Profile.agreed_exn offer (Qtp.Profile.anything ())

(* 30 flows on the AF dumbbell for 20 s: 10 QTP_AF flows at g = 0.3
   Mb/s, 10 QTP_light flows, 6 TCP flows and 4 Poisson aggregates. *)
let test_af_dumbbell_stream () =
  let n_af = 10 and n_light = 10 and n_tcp = 6 and n_bg = 4 in
  let n_flows = n_af + n_light + n_tcp + n_bg in
  let sim, topo =
    Experiments.Common.af_dumbbell ~seed:42 ~n_flows ~bottleneck_mbps:10.0
      ~committed_mbps:
        (Array.init n_flows (fun i -> if i < n_af then 0.3 else 0.0))
      ()
  in
  let s = record sim in
  let rng = Engine.Sim.split_rng sim in
  for i = 0 to n_flows - 1 do
    let endpoint = Netsim.Topology.endpoint topo i in
    let connect offer =
      ignore
        (Qtp.Connection.create ~sim ~endpoint
           (Qtp.Connection.config ~initial_rtt:0.2 (agreed offer)))
    in
    if i < n_af then
      connect (Qtp.Profile.qtp_af ~g_bps:(Experiments.Common.mbps 0.3) ())
    else if i < n_af + n_light then connect (Qtp.Profile.qtp_light ())
    else if i < n_af + n_light + n_tcp then
      ignore (Tcp.Flow.create ~sim ~endpoint ())
    else begin
      Experiments.Common.sink_background endpoint;
      ignore
        (Workload.Background.poisson ~sim
           ~sink:endpoint.Netsim.Topology.to_receiver ~flow_id:i
           ~rng:(Engine.Rng.split rng) ~rate_bps:1e6 ~packet_size:1000 ())
    end
  done;
  Engine.Sim.run ~until:20.0 sim;
  check_stream "AF dumbbell" s

(* One QTP_light flow moving every 4 s between a 20 Mb/s, 8 ms path and
   a 10 Mb/s, 30 ms one for 28 s, the first five moves hard cuts: the
   severed path's links keep firing their timers for the frames they
   held.  The six moves are posted at set-up, 4 to 24 s ahead. *)
let test_mobile_cut_stream () =
  let sim, m =
    Experiments.Common.mobile_path ~seed:42
      ~paths:[ (20.0, 0.008); (10.0, 0.030) ]
      ()
  in
  let s = record sim in
  let conn =
    Qtp.Connection.create ~sim
      ~endpoint:(Netsim.Topology.endpoint (Netsim.Topology.mobile_net m) 0)
      (Qtp.Connection.config ~initial_rtt:0.05 ~handover:`Reset
         (agreed (Qtp.Profile.qtp_light ())))
  in
  Netsim.Topology.on_migrate m (fun idx ->
      Qtp.Connection.notify_migration conn
        ~link:(Experiments.Common.declared_link m idx));
  Netsim.Topology.apply_schedule m
    (List.init 6 (fun k ->
         let mode = if k < 5 then `Cut else `Drain in
         (4.0 *. float_of_int (k + 1), (k + 1) mod 2, mode)));
  Engine.Sim.run ~until:28.0 sim;
  check_stream "mobile path with a cut" s

(* E17's mix on a long fat network: QTP_AF at g = 5 Mb/s, QTP_light
   with full reliability and TCP on a 20 Mb/s AF bottleneck with 250 ms
   of one-way delay and half a bandwidth-delay product of buffer, for
   25 s.  Hundreds of frames are in flight at once, each a pending link
   event filed a quarter second ahead: at least 500 events must be
   pending at some point, where the other streams peak below 200. *)
let test_lfn_stream () =
  let sim, topo =
    Experiments.Common.af_dumbbell ~capacity_pkts:416 ~seed:42 ~n_flows:3
      ~bottleneck_mbps:20.0 ~bottleneck_delay:0.25
      ~committed_mbps:[| 5.0; 0.0; 0.0 |]
      ()
  in
  let s = record sim in
  let connect i offer =
    ignore
      (Qtp.Connection.create ~sim
         ~endpoint:(Netsim.Topology.endpoint topo i)
         (Qtp.Connection.config ~initial_rtt:0.5 (agreed offer)))
  in
  connect 0 (Qtp.Profile.qtp_af ~g_bps:(Experiments.Common.mbps 5.0) ());
  connect 1
    (Qtp.Profile.qtp_light ~reliability:[ Qtp.Capabilities.R_full ] ());
  ignore (Tcp.Flow.create ~sim ~endpoint:(Netsim.Topology.endpoint topo 2) ());
  Engine.Sim.run ~until:25.0 sim;
  check_stream "long fat network" s;
  if s.peak_pending < 500 then
    Alcotest.failf "long fat network: at most %d events pending at once"
      s.peak_pending

(* ------------------------------------------------------------------ *)
(* White-box census: after every operation on a bare wheel, events held
   in buckets plus live events staged in the ready heap must equal the
   advertised size, and [length] must equal the number of live events
   we put in. *)

let fresh_ev time seq =
  let ev = Engine.Event.make_dummy () in
  ev.Engine.Event.time <- time;
  ev.Engine.Event.seq <- seq;
  ev.Engine.Event.live <- true;
  ev

(* [take] removes only the live event [peek] returned: another event,
   or that one cancelled since, is refused; an empty wheel peeks a
   record that is not live. *)
let test_take_checks () =
  let w = Engine.Wheel.create () in
  Alcotest.(check bool)
    "empty: sentinel is not live" false
    (Engine.Wheel.peek w).Engine.Event.live;
  let a = fresh_ev 1.0 0 and b = fresh_ev 2.0 1 in
  Engine.Wheel.add w a;
  Engine.Wheel.add w b;
  let refused =
    Invalid_argument "Engine.Wheel.take: not the event peek returned"
  in
  Alcotest.(check bool) "peek is a" true (Engine.Wheel.peek w == a);
  Alcotest.check_raises "b is not the head" refused (fun () ->
      Engine.Wheel.take w b);
  a.Engine.Event.live <- false;
  Alcotest.check_raises "a was cancelled" refused (fun () ->
      Engine.Wheel.take w a);
  ignore (Engine.Wheel.remove w a : bool);
  Alcotest.(check bool) "peek skips the corpse" true (Engine.Wheel.peek w == b);
  Engine.Wheel.take w b;
  Alcotest.(check int) "empty" 0 (Engine.Wheel.length w)

let prop_census =
  QCheck.Test.make ~count:200 ~name:"wheel census invariant under random ops"
    arb_program (fun prog ->
      let w = Engine.Wheel.create () in
      let live = ref [] in
      let seq = ref 0 in
      let check () =
        let buckets, ready_live, size, _cursor = Engine.Wheel.census w in
        if buckets + ready_live <> size then
          QCheck.Test.fail_reportf
            "census out of balance: buckets %d + ready %d <> size %d" buckets
            ready_live size;
        if Engine.Wheel.length w <> List.length !live then
          QCheck.Test.fail_reportf "length %d <> live model %d"
            (Engine.Wheel.length w) (List.length !live);
        true
      in
      List.for_all
        (fun (tag, a) ->
          (match tag mod 4 with
          | 0 | 1 ->
              let ev = fresh_ev (float_of_int a /. 97.0) !seq in
              incr seq;
              Engine.Wheel.add w ev;
              live := ev :: !live
          | 2 -> (
              match !live with
              | [] -> ()
              | l ->
                  let ev = List.nth l (a mod List.length l) in
                  ev.Engine.Event.live <- false;
                  ignore (Engine.Wheel.remove w ev : bool);
                  live := List.filter (fun e -> e != ev) !live)
          | _ -> (
              match Engine.Wheel.pop_min w with
              | None -> ()
              | Some ev -> live := List.filter (fun e -> e != ev) !live));
          check ())
        prog)

let suite =
  [
    Alcotest.test_case "event at horizon fires" `Quick test_horizon_event_fires;
    Alcotest.test_case "cancel after fire is a no-op" `Quick
      test_cancel_after_fire;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_rejected;
    Alcotest.test_case "horizon reached on early drain" `Quick
      test_horizon_reached_on_early_drain;
    Alcotest.test_case "carry into every level" `Quick test_carry_every_level;
    QCheck_alcotest.to_alcotest prop_random_programs;
    QCheck_alcotest.to_alcotest prop_far_levels;
    QCheck_alcotest.to_alcotest prop_census;
    Alcotest.test_case "take checks the peeked event" `Quick test_take_checks;
    Alcotest.test_case "far-future times in order, NaN refused" `Quick
      test_far_future_and_nan;
    Alcotest.test_case "replay catches ties popped out of seq order" `Quick
      test_catches_reversed_ties;
    Alcotest.test_case "replay catches a cancelled event popped" `Quick
      test_catches_cancelled_pop;
    Alcotest.test_case "replay catches a far event left uncascaded" `Quick
      test_catches_uncascaded;
    Alcotest.test_case "replay refuses a stream recorded late" `Quick
      test_late_stream_refused;
    Alcotest.test_case "recorded stream: AF dumbbell, 30 flows" `Quick
      test_af_dumbbell_stream;
    Alcotest.test_case "recorded stream: mobile path through a cut" `Quick
      test_mobile_cut_stream;
    Alcotest.test_case "recorded stream: long fat network" `Quick
      test_lfn_stream;
  ]
