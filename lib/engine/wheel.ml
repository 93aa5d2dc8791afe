(* Hierarchical timer wheel.

   Virtual time is quantised to 1 µs ticks.  Nine levels of 32 slots
   give 2^45 ticks (~400 virtual days) of horizon; anything further
   lands in an overflow bucket that is respread when reached, and due
   times past 2^61 ticks saturate at that tick ([tick_of_time]).
   Level 0 slots are single ticks; a level-l slot spans 32^l ticks.  An
   event is filed at the highest level in which its tick differs from
   the cursor, so it cascades toward level 0 as the cursor approaches —
   classic hashed-and-hierarchical wheel (Varghese & Lauck) with
   absolute slot indexing.

   Firing order: the next occupied level-0 slot is drained into a small
   "ready" binary heap ordered by (time, seq), which resolves both
   sub-tick ordering (several float times can share a tick) and FIFO
   ties — so events pop in exactly (time, seq) order, the one a plain
   binary heap of all pending events would give.  The ready heap
   is private: a flat [Event.t] array compared inline, with no
   comparison closure and no option per peek, so {!Sim} fires an event
   with one [peek] and one [take] and allocates nothing.

   Cancellation is eager: every event knows its bucket and index, so a
   cancel is an O(1) swap-remove and the record can be recycled
   immediately.  A heap that kept cancelled entries until they were
   popped would, under timer churn (RTO restarted on every ACK), hold
   the whole scheduled history instead of the live set. *)

let slot_bits = 5

let slots = 32

let slot_mask = slots - 1

let levels = 9

let overflow_id = levels * slots

let ticks_per_second = 1e6

(* Due times at or past [max_tick] µs (≈73,000 years, [infinity]
   included) all share that one tick: [int_of_float] is undefined past
   the int range, and on amd64 turns such times into tick 0, ahead of
   every event still in a bucket.  No earlier deadline can carry the
   cursor past [max_tick], so these events wait in the overflow bucket
   and pop in (time, seq) order from the ready heap. *)
let max_tick = 1 lsl 61

let tick_of_time time =
  let x = time *. ticks_per_second in
  if x < float_of_int max_tick then int_of_float x else max_tick

type bucket = { mutable arr : Event.t array; mutable n : int }

type t = {
  dummy : Event.t;  (** filler for vacated array slots; never live *)
  buckets : bucket array;  (** [levels * slots] wheel slots + overflow *)
  masks : int array;  (** per-level slot-occupancy bitmaps *)
  mutable cursor : int;  (** first tick not yet drained *)
  mutable ready : Event.t array;
      (** staged events: a binary min-heap by (time, seq) over
          [0, ready_n) *)
  mutable ready_n : int;
  mutable size : int;  (** live events across buckets and ready *)
}

let create () =
  let dummy = Event.make_dummy () in
  {
    dummy;
    buckets = Array.init (overflow_id + 1) (fun _ -> { arr = [||]; n = 0 });
    masks = Array.make levels 0;
    cursor = 0;
    ready = Array.make 8 dummy;
    ready_n = 0;
    size = 0;
  }

let length t = t.size

(* The ready heap.  [earlier] is the canonical (time, seq) order, by
   [Float.compare] on times; [seq] is unique, so any heap pops the one
   canonical order. *)
let[@inline] earlier (a : Event.t) (b : Event.t) =
  let c = Float.compare a.Event.time b.Event.time in
  c < 0 || (c = 0 && a.Event.seq < b.Event.seq)

(* Move the hole at [i] toward the root until [ev] fits there. *)
let[@vtp.hot] rec sift_up heap i (ev : Event.t) =
  if i = 0 then heap.(0) <- ev
  else begin
    let p = (i - 1) / 2 in
    let pe = heap.(p) in
    if earlier ev pe then begin
      heap.(i) <- pe;
      sift_up heap p ev
    end
    else heap.(i) <- ev
  end

(* Move the hole at [i] toward the leaves of [heap.(0 .. n-1)] until
   [ev] fits there. *)
let[@vtp.hot] rec sift_down heap n i (ev : Event.t) =
  let l = (2 * i) + 1 in
  if l >= n then heap.(i) <- ev
  else begin
    let c = if l + 1 < n && earlier heap.(l + 1) heap.(l) then l + 1 else l in
    let ce = heap.(c) in
    if earlier ce ev then begin
      heap.(i) <- ce;
      sift_down heap n c ev
    end
    else heap.(i) <- ev
  end

let[@vtp.hot] stage t (ev : Event.t) =
  ev.Event.where <- Event.in_ready;
  let n = t.ready_n in
  if n = Array.length t.ready then begin
    let grown = Array.make (2 * n) t.dummy in
    Array.blit t.ready 0 grown 0 n;
    t.ready <- grown
  end;
  t.ready_n <- n + 1;
  sift_up t.ready n ev

(* Drop the ready heap's root. *)
let[@vtp.hot] unstage t =
  let root = t.ready.(0) in
  let n = t.ready_n - 1 in
  let last = t.ready.(n) in
  t.ready.(n) <- t.dummy;
  t.ready_n <- n;
  if n > 0 then sift_down t.ready n 0 last;
  root.Event.where <- Event.in_none

let[@vtp.hot] bucket_push t id (ev : Event.t) =
  let b = t.buckets.(id) in
  if b.n >= Array.length b.arr then begin
    let cap = Stdlib.max 4 (2 * Array.length b.arr) in
    let arr = Array.make cap t.dummy in
    Array.blit b.arr 0 arr 0 b.n;
    b.arr <- arr
  end;
  b.arr.(b.n) <- ev;
  ev.Event.where <- id;
  ev.Event.pos <- b.n;
  b.n <- b.n + 1

(* The index of the lowest set bit, in constant time: isolate the bit
   with [m land (-m)] and hash the power of two through a de Bruijn
   multiply (Leiserson, Prokop & Randall, 1998);
   [debruijn.[debruijn_slot (1 lsl i)]] is [i]. *)
let debruijn_slot p = ((p * 0x077CB531) land 0xFFFFFFFF) lsr 27

let debruijn =
  String.init 32 (fun slot ->
      let rec find i =
        if debruijn_slot (1 lsl i) = slot then i else find (i + 1)
      in
      Char.chr (find 0))

(* For a slot-occupancy mask: 0 < m < 2^32. *)
let[@vtp.hot] lowest_bit_index m =
  Char.code debruijn.[debruijn_slot (m land (-m))]

(* The level at which [tick] parts ways with the cursor, from
   [x = tick lxor cursor]: the index of the highest differing 5-bit
   slot group, i.e. [l] when 32^l <= x < 32^(l+1), and [levels] beyond
   the horizon.  Equal ticks file at level 0, in the cursor's own slot.
   A fixed tree of compares over the nine levels, shallowest for the
   near levels most events file at: measured faster than a loop over
   the levels, and than a de Bruijn lookup of the highest set bit. *)
let[@vtp.hot] find_level x =
  if x < 1 lsl 10 then if x < 1 lsl 5 then 0 else 1
  else if x < 1 lsl 20 then if x < 1 lsl 15 then 2 else 3
  else if x < 1 lsl 30 then if x < 1 lsl 25 then 4 else 5
  else if x < 1 lsl 40 then if x < 1 lsl 35 then 6 else 7
  else if x < 1 lsl 45 then 8
  else levels

let[@vtp.hot] level_of t tick = find_level (tick lxor t.cursor)

let[@vtp.hot] place t (ev : Event.t) =
  let l = level_of t ev.Event.tick in
  if l >= levels then bucket_push t overflow_id ev
  else begin
    let s = (ev.Event.tick lsr (slot_bits * l)) land slot_mask in
    bucket_push t ((l * slots) + s) ev;
    t.masks.(l) <- t.masks.(l) lor (1 lsl s)
  end

let[@vtp.hot] add t (ev : Event.t) =
  ev.Event.tick <- tick_of_time ev.Event.time;
  t.size <- t.size + 1;
  if ev.Event.tick < t.cursor then begin
    (* Due inside the already-drained region (the cursor may sit ahead
       of the sim clock after a peek): stage directly. *)
    stage t ev
  end
  else place t ev

let[@vtp.hot] remove t (ev : Event.t) =
  let id = ev.Event.where in
  if id >= 0 then begin
    let b = t.buckets.(id) in
    let last = b.n - 1 in
    let moved = b.arr.(last) in
    b.arr.(ev.Event.pos) <- moved;
    moved.Event.pos <- ev.Event.pos;
    b.arr.(last) <- t.dummy;
    b.n <- last;
    if last = 0 && id < overflow_id then begin
      let l = id / slots and s = id mod slots in
      t.masks.(l) <- t.masks.(l) land lnot (1 lsl s)
    end;
    ev.Event.where <- Event.in_none;
    t.size <- t.size - 1;
    true
  end
  else if id = Event.in_ready then begin
    (* Buried in the ready heap: account for it now, let the pop path
       discard the (dead) record when it surfaces. *)
    t.size <- t.size - 1;
    false
  end
  else false

let[@vtp.hot] drain_slot t s =
  let b = t.buckets.(s) in
  let n = b.n in
  for i = 0 to n - 1 do
    let ev = b.arr.(i) in
    b.arr.(i) <- t.dummy;
    stage t ev
  done;
  b.n <- 0;
  t.masks.(0) <- t.masks.(0) land lnot (1 lsl s);
  n

let[@vtp.hot] cascade t l s =
  let id = (l * slots) + s in
  let b = t.buckets.(id) in
  let n = b.n in
  b.n <- 0;
  t.masks.(l) <- t.masks.(l) land lnot (1 lsl s);
  for i = 0 to n - 1 do
    let ev = b.arr.(i) in
    b.arr.(i) <- t.dummy;
    (* The cursor now shares this event's level-[l] group, so it files
       strictly below level [l]: no infinite loop. *)
    place t ev
  done

(* All finite levels are empty: jump to the earliest overflow tick and
   re-place everything relative to the new cursor. *)
let respread_overflow t =
  let b = t.buckets.(overflow_id) in
  let n = b.n in
  let min_tick = ref b.arr.(0).Event.tick in
  for i = 1 to n - 1 do
    if b.arr.(i).Event.tick < !min_tick then min_tick := b.arr.(i).Event.tick
  done;
  t.cursor <- !min_tick;
  let stash = Array.sub b.arr 0 n in
  Array.fill b.arr 0 n t.dummy;
  b.n <- 0;
  Array.iter (fun ev -> place t ev) stash

(* The cursor just carried across a window boundary (its level-0 group
   wrapped to 0).  Cascade the slot it now occupies at every level the
   carry propagated through, highest first, so no event sits parked at
   level l while the cursor is inside that very window — otherwise
   later level-0 traffic would be drained past it. *)
let[@vtp.hot] rec carry_top t l =
  if l < levels && t.cursor land ((1 lsl (slot_bits * (l + 1))) - 1) = 0 then
    carry_top t (l + 1)
  else l

let[@vtp.hot] enter_window t =
  let h = carry_top t 1 in
  for l = h downto 1 do
    let s = (t.cursor lsr (slot_bits * l)) land slot_mask in
    if t.masks.(l) land (1 lsl s) <> 0 then cascade t l s
  done

(* Advance the cursor to the next occupied tick and stage that slot.
   [true] iff anything was staged. *)
let[@vtp.hot] rec refill t =
  let cur0 = t.cursor land slot_mask in
  let m0 = t.masks.(0) land (-1 lsl cur0) in
  if m0 <> 0 then begin
    let s = lowest_bit_index m0 in
    t.cursor <- t.cursor land lnot slot_mask lor s;
    let staged = drain_slot t s in
    t.cursor <- t.cursor + 1;
    if t.cursor land slot_mask = 0 then enter_window t;
    if staged > 0 then true else refill t
  end
  else climb t 1

(* Level 0 exhausted for this window: open the next occupied window of
   the lowest occupied level and cascade it down. *)
and climb t l =
  if l >= levels then
    if t.buckets.(overflow_id).n > 0 then begin
      respread_overflow t;
      refill t
    end
    else false
  else begin
    let cur_l = (t.cursor lsr (slot_bits * l)) land slot_mask in
    let m = t.masks.(l) land (-1 lsl cur_l) in
    if m = 0 then climb t (l + 1)
    else begin
      let s = lowest_bit_index m in
      let low = (1 lsl (slot_bits * (l + 1))) - 1 in
      t.cursor <- t.cursor land lnot low lor (s lsl (slot_bits * l));
      cascade t l s;
      refill t
    end
  end
[@@vtp.hot]

(* The ready heap's root once it is live, refilling from the wheel as
   needed; [t.dummy] (never live) when the wheel is empty. *)
let[@vtp.hot] rec peek t =
  if t.ready_n > 0 then begin
    let ev = t.ready.(0) in
    if ev.Event.live then ev
    else begin
      (* cancelled while staged: drop the corpse and keep looking *)
      unstage t;
      peek t
    end
  end
  else if t.size = 0 then t.dummy
  else if refill t then peek t
  else failwith "Engine.Wheel: size accounting out of sync"

let[@vtp.hot] take t (ev : Event.t) =
  if t.ready_n = 0 || t.ready.(0) != ev || not ev.Event.live then
    invalid_arg "Engine.Wheel.take: not the event peek returned";
  unstage t;
  t.size <- t.size - 1

let pop_min t =
  let ev = peek t in
  if ev.Event.live then begin
    take t ev;
    Some ev
  end
  else None

(* White-box accounting census for tests: every live event must be
   held exactly once, in a bucket or staged in the ready heap. *)
let census t =
  let live = ref 0 in
  Array.iter (fun b -> live := !live + b.n) t.buckets;
  let ready_live = ref 0 in
  for i = 0 to t.ready_n - 1 do
    if t.ready.(i).Event.live then incr ready_live
  done;
  (!live, !ready_live, t.size, t.cursor)
