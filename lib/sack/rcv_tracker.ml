module Serial = Packet.Serial
module Runs = Packet.Runs

(* Run-length receiver tracking: the out-of-order ranges are a run set
   ([Packet.Runs]) over absolute positions, each range tagged with the
   recency stamp of the arrival that last touched it, so the
   per-segment paths are a binary search plus O(1) amortised editing
   instead of a list walk.  The list implementation lives on as the
   differential oracle in test/rcv_tracker_ref.ml, and the hashtable
   reassembly this set replaced as the delivery oracle in
   test/reassembly_ref.ml.

   Absolute positions are anchored at the cumulative ack:
   [abs = cum_abs + Serial.diff s cum]; the anchor only moves forward,
   so positions are monotone even though serials wrap. *)

type t = {
  max_blocks : int;
  cost : Stats.Cost.t option;
  deliver : Serial.t -> unit;
  mutable cum : Serial.t;
  mutable cum_abs : int;
  (* the out-of-order ranges, tagged with their recency stamp; empty
     until the first out-of-order arrival, so an in-order flow never
     allocates their arrays *)
  runs : Runs.t;
  (* reused top-k buffers for {!sack_blocks} *)
  s_lo : int array;
  s_hi : int array;
  s_touch : int array;
  mutable stamp : int;
  mutable packets : int;
  mutable duplicates : int;
  mutable delivered : int;
  mutable skipped : int;
}

let create ?(max_blocks = 4) ?cost ~deliver () =
  assert (max_blocks >= 1);
  {
    max_blocks;
    cost;
    deliver;
    cum = Serial.zero;
    cum_abs = 0;
    runs = Runs.create ();
    s_lo = Array.make max_blocks 0;
    s_hi = Array.make max_blocks 0;
    s_touch = Array.make max_blocks (-1);
    stamp = 0;
    packets = 0;
    duplicates = 0;
    delivered = 0;
    skipped = 0;
  }

let charge t name =
  match t.cost with Some c -> Stats.Cost.charge c name | None -> ()

let cum_ack t = t.cum

let[@vtp.hot] abs_of t s = t.cum_abs + Serial.diff s t.cum

let ser_of t a = Serial.add t.cum (a - t.cum_abs)

let[@vtp.hot] received t s =
  Serial.( < ) s t.cum || Runs.mem t.runs (abs_of t s)

(* Deliberate-bug hook for the fuzz harness's negative test: with the
   duplicate check disabled, a duplicated segment re-inserts a range
   that may sit below already-acknowledged territory, and the bogus
   block leaks into SACK reports — which the sack-wellformed invariant
   must catch.  Never set outside tests. *)
let[@vtp.ambient] test_only_skip_dup_check = ref false

(* Move the cumulative point up to position [a], handing each number
   it passes to the application, in order.  Every number between is
   received: callers pass an arrival or the end of a range. *)
let[@vtp.hot] move_cum t a =
  for p = t.cum_abs to a - 1 do
    t.deliver (ser_of t p)
  done;
  t.delivered <- t.delivered + (a - t.cum_abs);
  t.cum <- ser_of t a;
  t.cum_abs <- a

(* Pull ranges that now touch the cumulative point into it. *)
let[@vtp.hot] rec advance_cum t =
  let r = t.runs in
  if
    r.Runs.fst < r.Runs.len
    && Array.unsafe_get r.Runs.lo r.Runs.fst <= t.cum_abs
  then begin
    let h = Array.unsafe_get r.Runs.hi r.Runs.fst in
    if h > t.cum_abs then move_cum t h;
    Runs.drop_first r;
    advance_cum t
  end

let[@vtp.hot] on_data t ~seq =
  charge t "recv.light.packet";
  t.packets <- t.packets + 1;
  t.stamp <- t.stamp + 1;
  if (not !test_only_skip_dup_check) && received t seq then
    t.duplicates <- t.duplicates + 1
  else if Serial.equal seq t.cum then begin
    move_cum t (t.cum_abs + 1);
    advance_cum t
  end
  else begin
    (* a fresh point opens a range, extends a touching one, or closes
       a one-wide gap by merging two; the range takes the new stamp *)
    let a = abs_of t seq in
    Runs.add t.runs a (a + 1) ~tag:t.stamp
  end

(* Walk the cumulative point up to [target] a gap and a range at a
   time: skip to the next range (or to [target]), counting the gap, and
   absorb that range, delivering it whole even where it straddles
   [target]. *)
let rec skip_to t target =
  let r = t.runs in
  let next =
    if Runs.length r > 0 then Stdlib.min r.Runs.lo.(r.Runs.fst) target
    else target
  in
  if next > t.cum_abs then begin
    t.skipped <- t.skipped + (next - t.cum_abs);
    t.cum <- ser_of t next;
    t.cum_abs <- next
  end;
  advance_cum t;
  if t.cum_abs < target then skip_to t target

let apply_fwd_point t fwd =
  if Serial.( > ) fwd t.cum then skip_to t (t.cum_abs + Serial.diff fwd t.cum)

let block t lo hi =
  { Packet.Header.block_start = ser_of t lo; block_end = ser_of t hi }

let all_ranges t =
  let r = t.runs in
  let rec collect i acc =
    if i < r.Runs.fst then acc
    else collect (i - 1) (block t r.Runs.lo.(i) r.Runs.hi.(i) :: acc)
  in
  collect (r.Runs.len - 1) []

let highest_expected t =
  let r = t.runs in
  if Runs.length r > 0 then ser_of t r.Runs.hi.(r.Runs.len - 1) else t.cum

(* Most-recently-touched [max_blocks] ranges, newest first (recency
   stamps are unique, so the selection is deterministic and does not
   depend on scan order).  A bounded insertion pass over reused scratch
   arrays: only the returned blocks are allocated.  The scan runs from
   the highest range down because stamps mostly rise with sequence
   number: the top k are then usually met first, and every later range
   costs one comparison against the k-th stamp instead of an insertion
   through the whole buffer. *)
let sack_blocks t =
  charge t "recv.light.feedback";
  let k = t.max_blocks in
  let count = ref 0 in
  let r = t.runs in
  for idx = r.Runs.len - 1 downto r.Runs.fst do
    let tch = r.Runs.tag.(idx) in
    if !count < k || tch > t.s_touch.(k - 1) then begin
      let i = ref (Stdlib.min !count (k - 1)) in
      while !i > 0 && t.s_touch.(!i - 1) < tch do
        t.s_lo.(!i) <- t.s_lo.(!i - 1);
        t.s_hi.(!i) <- t.s_hi.(!i - 1);
        t.s_touch.(!i) <- t.s_touch.(!i - 1);
        decr i
      done;
      t.s_lo.(!i) <- r.Runs.lo.(idx);
      t.s_hi.(!i) <- r.Runs.hi.(idx);
      t.s_touch.(!i) <- tch;
      if !count < k then incr count
    end
  done;
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (block t t.s_lo.(i) t.s_hi.(i) :: acc)
  in
  let blocks = build (!count - 1) [] in
  Array.fill t.s_touch 0 k (-1);
  blocks

let ranges_held t = Runs.length t.runs

let packets t = t.packets

let duplicates t = t.duplicates

let delivered t = t.delivered

let skipped t = t.skipped
