module Serial = Packet.Serial
module Runs = Packet.Runs

(* Run-length receiver tracking: the out-of-order ranges are a run set
   ([Packet.Runs]) over absolute positions, each range tagged with the
   recency stamp of the arrival that last touched it, so the
   per-segment paths are a binary search plus editing the shorter side
   of the set instead of a list walk.  The list implementation lives on
   as the differential oracle in test/rcv_tracker_ref.ml, and the
   hashtable reassembly this set replaced as the delivery oracle in
   test/reassembly_ref.ml.

   A SACK report names the [max_blocks] ranges with the newest tags.
   Rather than scan every range for them, the tracker keeps its
   out-of-order arrivals as (position, stamp) entries in arrival order.
   An entry is live while the range holding its position carries its
   stamp: tags are unique stamps and a range takes the stamp of each
   arrival that touches it, so every range has exactly one live entry,
   and an entry once dead stays dead.  The report walks back from the
   newest entry and stops at the [max_blocks]-th live one, dropping the
   dead ones it crosses; the entries are kept within 2 × ranges + 16 by
   compacting them whole, so a report costs O([max_blocks] · log
   ranges) amortised, however many ranges there are.

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
  (* the out-of-order arrivals, oldest first: entry [e] is a position
     at [2e] and its stamp at [2e + 1], for [e < entries]; empty until
     the first out-of-order arrival *)
  mutable arrivals : int array;
  mutable entries : int;
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
    arrivals = [||];
    entries = 0;
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

(* The index of the range that carries entry [e]'s stamp, or -1 when
   the entry is dead. *)
let[@vtp.hot] live_range t e =
  let r = t.runs in
  let p = Array.unsafe_get t.arrivals (2 * e) in
  let i = Runs.seek r p in
  if
    i < r.Runs.len
    && Array.unsafe_get r.Runs.lo i <= p
    && Array.unsafe_get r.Runs.tag i = Array.unsafe_get t.arrivals ((2 * e) + 1)
  then i
  else -1

let[@vtp.hot] set_entry t e p stamp =
  Array.unsafe_set t.arrivals (2 * e) p;
  Array.unsafe_set t.arrivals ((2 * e) + 1) stamp

let[@vtp.hot] copy_entry t src dst =
  set_entry t dst
    (Array.unsafe_get t.arrivals (2 * src))
    (Array.unsafe_get t.arrivals ((2 * src) + 1))

(* Pack the live entries from [e] up down to [w] on, in order; returns
   the count kept. *)
let rec compact t e w =
  if e >= t.entries then w
  else if live_range t e >= 0 then begin
    copy_entry t e w;
    compact t (e + 1) (w + 1)
  end
  else compact t (e + 1) w

(* Keep the entries within 2 × ranges + 16: none when no range is left,
   else, past the bound, only the live ones. *)
let[@vtp.hot] bound t =
  let n = Runs.length t.runs in
  if n = 0 then t.entries <- 0
  else if t.entries > (2 * n) + 16 then t.entries <- compact t 0 0

(* Record the out-of-order arrival at [a], which took the current
   stamp.  When the newest entry lies in the range now holding [a], that
   entry died with this arrival and the new one takes its place. *)
let[@vtp.hot] note_arrival t a =
  let r = t.runs in
  let k = t.entries in
  if
    k > 0
    &&
    let p = Array.unsafe_get t.arrivals (2 * (k - 1)) in
    let i = Runs.seek r a in
    Array.unsafe_get r.Runs.lo i <= p && p < Array.unsafe_get r.Runs.hi i
  then set_entry t (k - 1) a t.stamp
  else begin
    if 2 * k = Array.length t.arrivals then begin
      let grown = Array.make (Stdlib.max 16 (4 * k)) 0 in
      for x = 0 to (2 * k) - 1 do
        Array.unsafe_set grown x (Array.unsafe_get t.arrivals x)
      done;
      t.arrivals <- grown
    end;
    set_entry t k a t.stamp;
    t.entries <- k + 1
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
    Runs.add t.runs a (a + 1) ~tag:t.stamp;
    note_arrival t a
  end;
  bound t

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
  if Serial.( > ) fwd t.cum then begin
    skip_to t (t.cum_abs + Serial.diff fwd t.cum);
    bound t
  end

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

(* The blocks of the [want] newest live entries from entry [e] down,
   newest first.  The live entries met are packed down below [w] (the
   ones kept so far sit at [w, entries)) and the dead ones dropped;
   where the walk stops, the kept entries close the gap over the dropped
   ones, so a pick moves at most [max_blocks] entries. *)
let rec pick t e w want =
  if want = 0 || e < 0 then begin
    let d = w - (e + 1) in
    if d > 0 then begin
      for x = w to t.entries - 1 do
        copy_entry t x (x - d)
      done;
      t.entries <- t.entries - d
    end;
    []
  end
  else begin
    let i = live_range t e in
    if i < 0 then pick t (e - 1) w want
    else begin
      let w = w - 1 in
      copy_entry t e w;
      let r = t.runs in
      let b = block t r.Runs.lo.(i) r.Runs.hi.(i) in
      b :: pick t (e - 1) w (want - 1)
    end
  end

(* Most-recently-touched [max_blocks] ranges, newest first: each
   range's one live entry, met in stamp order from the newest. *)
let sack_blocks t =
  charge t "recv.light.feedback";
  let want = Stdlib.min t.max_blocks (Runs.length t.runs) in
  pick t (t.entries - 1) t.entries want

let ranges_held t = Runs.length t.runs

let packets t = t.packets

let duplicates t = t.duplicates

let delivered t = t.delivered

let skipped t = t.skipped
