(* Recording funnels every flow through ONE shared journal ring: a
   hundred per-flow rings each force a cold cache-line fill per event
   (interleaved write streams defeat the hardware prefetcher — measured
   ~4x the cost of a single stream on the 100-flow bench scenario),
   while a single sequential journal streams at near-bandwidth.
   Per-flow bounded rings — the exported shape — are materialised on
   demand from the journal's flow labels; only per-flow event COUNTS
   are maintained online, in an array indexed by flow id (ids are
   dense, and {!Ring.push} bounds them to [0, 2^20)). *)

type t = {
  capacity : int;  (* bound for materialised per-flow rings *)
  journal : Ring.t;
  mutable counts : int array;  (* grown on demand, indexed by flow id *)
  mutable total : int;
}

let default_capacity = 16384

(* The journal holds [journal_factor] times the per-flow capacity, so
   each of up to [journal_factor] similarly-chatty flows keeps its full
   per-flow window; beyond that the journal sheds oldest-first across
   all flows (a global memory bound, counted per flow in the
   materialised views' [dropped]). *)
let journal_factor = 4

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.Recorder.create: capacity < 1";
  {
    capacity;
    journal = Ring.create ~capacity:(journal_factor * capacity);
    counts = [||];
    total = 0;
  }

(* The ambient registry is domain-local: parallel fan-out (Engine.Pool)
   runs one simulation per domain, and each must journal into its own
   recorder — a shared ref would interleave unrelated runs' events and
   race on the ring.  Within a domain the discipline is unchanged: one
   installed recorder at a time. *)
let ambient : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let on () =
  match !(Domain.DLS.get ambient) with Some _ -> true | None -> false

(* [Ring.push] validates the flow id first, so a rejected id leaves the
   counts and the total untouched. *)
let record t ~flow ~at ev =
  Ring.push ~flow t.journal ~at ev;
  let n = Array.length t.counts in
  if flow >= n then begin
    let grown = Array.make (Stdlib.max (flow + 1) (2 * n)) 0 in
    Array.blit t.counts 0 grown 0 n;
    t.counts <- grown
  end;
  t.counts.(flow) <- t.counts.(flow) + 1;
  t.total <- t.total + 1

let emit ~flow ~at ev =
  match !(Domain.DLS.get ambient) with
  | None -> ()
  | Some t -> record t ~flow ~at ev

let with_recorder f =
  let t = create () in
  let slot = Domain.DLS.get ambient in
  slot := Some t;
  let x = Fun.protect ~finally:(fun () -> slot := None) f in
  (x, t)

let count t flow =
  if flow >= 0 && flow < Array.length t.counts then t.counts.(flow) else 0

let flows t =
  let ids = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then ids := i :: !ids
  done;
  !ids

let ring t ~flow =
  let n = count t flow in
  if n = 0 then None
  else begin
    let r = Ring.create ~capacity:t.capacity in
    Ring.iter_tagged
      (fun fl e -> if fl = flow then Ring.push ~flow r ~at:e.Ring.at e.Ring.ev)
      t.journal;
    Ring.note_dropped r (n - Ring.total r);
    Some r
  end

let events t = t.total
