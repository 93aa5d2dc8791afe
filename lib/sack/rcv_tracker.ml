module Serial = Packet.Serial

(* Run-length receiver tracking: the out-of-order ranges live in sorted
   parallel int arrays (absolute positions, half-open) with a moving
   front offset, so the per-segment paths are a binary search plus O(1)
   amortised editing instead of a list walk.  The list implementation
   lives on as the differential oracle in test/rcv_tracker_ref.ml, and
   the hashtable reassembly this set replaced as the delivery oracle in
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
  (* live ranges are [fst, len) of the parallel arrays *)
  mutable lo : int array;
  mutable hi : int array;
  mutable touched : int array;  (* recency stamp *)
  mutable fst : int;
  mutable len : int;
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
    (* empty until the first out-of-order arrival: an in-order flow
       never allocates them *)
    lo = [||];
    hi = [||];
    touched = [||];
    fst = 0;
    len = 0;
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

(* Smallest live index whose range ends strictly after [a] — the only
   range that can contain [a].  Accumulator recursion, so the
   per-segment membership test allocates nothing. *)
let[@vtp.hot] rec seek_from t a lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get t.hi mid > a then seek_from t a lo mid
    else seek_from t a (mid + 1) hi

let[@vtp.hot] seek t a = seek_from t a t.fst t.len

let[@vtp.hot] covers t a =
  let i = seek t a in
  i < t.len && Array.unsafe_get t.lo i <= a

let[@vtp.hot] received t s = Serial.( < ) s t.cum || covers t (abs_of t s)

(* Deliberate-bug hook for the fuzz harness's negative test: with the
   duplicate check disabled, a duplicated segment re-inserts a range
   that may sit below (or inside) already-acknowledged territory, and
   the bogus block leaks into SACK reports — which the sack-wellformed
   invariant must catch.  Never set outside tests. *)
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
  if t.fst < t.len && Array.unsafe_get t.lo t.fst <= t.cum_abs then begin
    let h = Array.unsafe_get t.hi t.fst in
    if h > t.cum_abs then move_cum t h;
    t.fst <- t.fst + 1;
    advance_cum t
  end

(* Make room for one more range, compacting the dead front first and
   only growing when genuinely full (from empty to 16 slots). *)
let reserve t =
  let cap = Array.length t.lo in
  if t.len = cap then begin
    let live = t.len - t.fst in
    if t.fst > 0 then begin
      Array.blit t.lo t.fst t.lo 0 live;
      Array.blit t.hi t.fst t.hi 0 live;
      Array.blit t.touched t.fst t.touched 0 live
    end
    else begin
      let ncap = Stdlib.max 16 (2 * cap) in
      let nlo = Array.make ncap 0
      and nhi = Array.make ncap 0
      and ntouch = Array.make ncap 0 in
      Array.blit t.lo t.fst nlo 0 live;
      Array.blit t.hi t.fst nhi 0 live;
      Array.blit t.touched t.fst ntouch 0 live;
      t.lo <- nlo;
      t.hi <- nhi;
      t.touched <- ntouch
    end;
    t.fst <- 0;
    t.len <- live
  end

(* Precondition: a free slot exists ([reserve] ran this operation). *)
let shift_right t pos =
  Array.blit t.lo pos t.lo (pos + 1) (t.len - pos);
  Array.blit t.hi pos t.hi (pos + 1) (t.len - pos);
  Array.blit t.touched pos t.touched (pos + 1) (t.len - pos);
  t.len <- t.len + 1

let delete_at t pos =
  Array.blit t.lo (pos + 1) t.lo pos (t.len - pos - 1);
  Array.blit t.hi (pos + 1) t.hi pos (t.len - pos - 1);
  Array.blit t.touched (pos + 1) t.touched pos (t.len - pos - 1);
  t.len <- t.len - 1

(* Insert the fresh point [a], extending a touching neighbour (and
   closing a one-wide gap by merging both) or opening a new range. *)
let[@vtp.hot] insert_point t a =
  reserve t;  (* may compact or grow: run before any index is taken *)
  let pos = seek t a in
  let prev = pos - 1 in
  if prev >= t.fst && Array.unsafe_get t.hi prev = a then begin
    t.hi.(prev) <- a + 1;
    t.touched.(prev) <- t.stamp;
    if pos < t.len && Array.unsafe_get t.lo pos = a + 1 then begin
      t.hi.(prev) <- Array.unsafe_get t.hi pos;
      delete_at t pos
    end
  end
  else if pos < t.len && Array.unsafe_get t.lo pos = a + 1 then begin
    t.lo.(pos) <- a;
    t.touched.(pos) <- t.stamp
  end
  else begin
    shift_right t pos;
    t.lo.(pos) <- a;
    t.hi.(pos) <- a + 1;
    t.touched.(pos) <- t.stamp
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
  else insert_point t (abs_of t seq)

(* Walk the cumulative point up to [target] a gap and a range at a
   time: skip to the next range (or to [target]), counting the gap, and
   absorb that range, delivering it whole even where it straddles
   [target]. *)
let rec skip_to t target =
  let next = if t.fst < t.len then Stdlib.min t.lo.(t.fst) target else target in
  if next > t.cum_abs then begin
    t.skipped <- t.skipped + (next - t.cum_abs);
    t.cum <- ser_of t next;
    t.cum_abs <- next
  end;
  advance_cum t;
  if t.cum_abs < target then skip_to t target

let apply_fwd_point t fwd =
  if Serial.( > ) fwd t.cum then skip_to t (t.cum_abs + Serial.diff fwd t.cum)

let block_of t i =
  { Packet.Header.block_start = ser_of t t.lo.(i); block_end = ser_of t t.hi.(i) }

let all_ranges t =
  let rec collect t i acc =
    if i < t.fst then acc else collect t (i - 1) (block_of t i :: acc)
  in
  collect t (t.len - 1) []

let highest_expected t = if t.len > t.fst then ser_of t t.hi.(t.len - 1) else t.cum

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
  for idx = t.len - 1 downto t.fst do
    let tch = t.touched.(idx) in
    if !count < k || tch > t.s_touch.(k - 1) then begin
      let i = ref (Stdlib.min !count (k - 1)) in
      while !i > 0 && t.s_touch.(!i - 1) < tch do
        t.s_lo.(!i) <- t.s_lo.(!i - 1);
        t.s_hi.(!i) <- t.s_hi.(!i - 1);
        t.s_touch.(!i) <- t.s_touch.(!i - 1);
        decr i
      done;
      t.s_lo.(!i) <- t.lo.(idx);
      t.s_hi.(!i) <- t.hi.(idx);
      t.s_touch.(!i) <- tch;
      if !count < k then incr count
    end
  done;
  let rec build i acc =
    if i < 0 then acc
    else
      build (i - 1)
        ({
           Packet.Header.block_start = ser_of t t.s_lo.(i);
           block_end = ser_of t t.s_hi.(i);
         }
        :: acc)
  in
  let blocks = build (!count - 1) [] in
  Array.fill t.s_touch 0 k (-1);
  blocks

let ranges_held t = t.len - t.fst

let packets t = t.packets

let duplicates t = t.duplicates

let delivered t = t.delivered

let skipped t = t.skipped
