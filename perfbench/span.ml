(* Spans around the calls the benchmark itself makes into a layer's
   public functions.

   A span is (layer id, flow id, start, end, parent).  Open spans sit
   on a fixed stack; when one closes, its duration minus the time its
   nested spans covered is added to its layer's self time, and the
   duration is charged to the enclosing span as child time.  Aggregates cover every call; the
   first [raw_capacity] spans are also kept whole, in flat preallocated
   arrays, for export.  Nothing here allocates per span. *)

(* Bechamel's clock stub returns an unboxed int64, and [now] is small
   enough to inline, so reading the clock does not allocate. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let max_depth = 64

type t = {
  names : string array;
  calls : int array;
  self_ns : int array;
  stk_layer : int array;
  stk_flow : int array;
  stk_id : int array;
  stk_start : int array;
  stk_child : int array;
  mutable depth : int;
  mutable next_id : int;
  raw_layer : int array;
  raw_flow : int array;
  raw_start : int array;
  raw_stop : int array;
  raw_parent : int array;
}

let create ?(raw_capacity = 100_000) names =
  let layers = Array.length names in
  let stack () = Array.make max_depth 0 in
  let raw () = Array.make raw_capacity 0 in
  {
    names;
    calls = Array.make layers 0;
    self_ns = Array.make layers 0;
    stk_layer = stack ();
    stk_flow = stack ();
    stk_id = stack ();
    stk_start = stack ();
    stk_child = stack ();
    depth = 0;
    next_id = 0;
    raw_layer = raw ();
    raw_flow = raw ();
    raw_start = raw ();
    raw_stop = raw ();
    raw_parent = raw ();
  }

let enter_at t ~layer ~flow ~at =
  let d = t.depth in
  if d = max_depth then failwith "Span.enter: nesting deeper than max_depth";
  t.stk_layer.(d) <- layer;
  t.stk_flow.(d) <- flow;
  t.stk_id.(d) <- t.next_id;
  t.stk_start.(d) <- at;
  t.stk_child.(d) <- 0;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1

let leave_at t ~at =
  let d = t.depth - 1 in
  if d < 0 then failwith "Span.leave: no open span";
  t.depth <- d;
  let layer = t.stk_layer.(d) in
  let dur = at - t.stk_start.(d) in
  t.calls.(layer) <- t.calls.(layer) + 1;
  t.self_ns.(layer) <- t.self_ns.(layer) + dur - t.stk_child.(d);
  if d > 0 then t.stk_child.(d - 1) <- t.stk_child.(d - 1) + dur;
  let id = t.stk_id.(d) in
  if id < Array.length t.raw_layer then begin
    t.raw_layer.(id) <- layer;
    t.raw_flow.(id) <- t.stk_flow.(d);
    t.raw_start.(id) <- t.stk_start.(d);
    t.raw_stop.(id) <- at;
    t.raw_parent.(id) <- (if d > 0 then t.stk_id.(d - 1) else -1)
  end

let enter t ~layer ~flow = enter_at t ~layer ~flow ~at:(now ())

let leave t = leave_at t ~at:(now ())

(* [wrap t ~layer ~flow f] is [f] timed as one span per call. *)
let wrap t ~layer ~flow f x =
  enter t ~layer ~flow;
  match f x with
  | () -> leave t
  | exception e ->
      leave t;
      raise e

let calls t layer = t.calls.(layer)

let self_ns t layer = t.self_ns.(layer)

let spans t = t.next_id

(* Raw spans as tab-separated rows, one per span, ids in opening order;
   [parent] is -1 for a span opened outside any other. *)
let write_tsv t path =
  if t.depth <> 0 then failwith "Span.write_tsv: spans still open";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tlayer\tflow\tstart_ns\tend_ns\tparent\n";
      for id = 0 to Stdlib.min t.next_id (Array.length t.raw_layer) - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" id
          t.names.(t.raw_layer.(id))
          t.raw_flow.(id) t.raw_start.(id) t.raw_stop.(id) t.raw_parent.(id)
      done)
