(* Sorted, coalesced, half-open [lo, hi) runs over absolute positions,
   each with one tag unless the set is untagged, in growable parallel
   arrays.  Live runs sit at [fst, len): dropping the lowest run moves
   the front offset, an edit moves whichever side of it is shorter, and
   the dead front is reclaimed before the arrays grow.  Runs move by
   typed [int] loops, which compile to plain stores: [Array.blit] goes
   through the write barrier once an array is in the major heap. *)

type t = {
  mutable lo : int array;
  mutable hi : int array;
  mutable tag : int array;
  tagged : bool;
  mutable fst : int;
  mutable len : int;
}

let make tagged = { lo = [||]; hi = [||]; tag = [||]; tagged; fst = 0; len = 0 }

let create () = make true

let create_untagged () = make false

let length t = t.len - t.fst

(* Smallest index whose run ends strictly after [x] — the only run that
   can contain [x].  Plain accumulator recursion so the per-packet
   membership test allocates nothing. *)
let[@vtp.hot] rec seek_from t x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get t.hi mid > x then seek_from t x lo mid
    else seek_from t x (mid + 1) hi

let[@vtp.hot] seek t x = seek_from t x t.fst t.len

let[@vtp.hot] mem t x =
  let i = seek t x in
  i < t.len && Array.unsafe_get t.lo i <= x

(* Move the [n] elements of [a] at [src] to [dst]; the ranges may
   overlap.  Callers keep both inside the array. *)
let[@vtp.hot] move (a : int array) src dst n =
  if dst < src then
    for k = 0 to n - 1 do
      Array.unsafe_set a (dst + k) (Array.unsafe_get a (src + k))
    done
  else
    for k = n - 1 downto 0 do
      Array.unsafe_set a (dst + k) (Array.unsafe_get a (src + k))
    done

(* Move the [n] runs at [src] to [dst], tags with them. *)
let[@vtp.hot] blit t src dst n =
  move t.lo src dst n;
  move t.hi src dst n;
  if t.tagged then move t.tag src dst n

let grown (a : int array) cap n =
  let b = Array.make cap 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set b k (Array.unsafe_get a k)
  done;
  b

(* Make room for one more run above the live ones when the arrays are
   full: move the live runs down over the dead front, or, when there is
   none, double (from empty to 8 runs).  Either way indices move, so the
   index [i] taken before is returned as it stands after. *)
let reserve t i =
  let cap = Array.length t.lo in
  if t.len < cap then i
  else if t.fst > 0 then begin
    let d = t.fst in
    blit t d 0 (t.len - d);
    t.fst <- 0;
    t.len <- t.len - d;
    i - d
  end
  else begin
    let ncap = Stdlib.max 8 (2 * cap) in
    t.lo <- grown t.lo ncap t.len;
    t.hi <- grown t.hi ncap t.len;
    if t.tagged then t.tag <- grown t.tag ncap t.len;
    i
  end

(* Open a slot for one run just before the run at index [i] and return
   the slot's index; the slot keeps a copy of that run, which follows
   it.  The shorter side moves: when the runs below [i] are fewer than
   those from [i] up and the dead front has room, they and run [i] move
   down one; otherwise the runs from [i] up move up one. *)
let[@vtp.hot] open_slot t i =
  if t.fst > 0 && i - t.fst < t.len - i then begin
    blit t t.fst (t.fst - 1) (i - t.fst + 1);
    t.fst <- t.fst - 1;
    i - 1
  end
  else begin
    let i = reserve t i in
    blit t i (i + 1) (t.len - i);
    t.len <- t.len + 1;
    i
  end

(* Delete the runs [i, j), moving the shorter side over them: the runs
   below [i] up, advancing the front, or the runs from [j] down. *)
let[@vtp.hot] close_up t i j =
  let d = j - i in
  if i - t.fst < t.len - j then begin
    blit t t.fst (t.fst + d) (i - t.fst);
    t.fst <- t.fst + d
  end
  else begin
    blit t j i (t.len - j);
    t.len <- t.len - d
  end

(* First index from [j] whose run starts beyond [h]. *)
let[@vtp.hot] rec starts_past t h j =
  if j < t.len && Array.unsafe_get t.lo j <= h then starts_past t h (j + 1)
  else j

(* First index from [j] whose run ends beyond [h]. *)
let[@vtp.hot] rec ends_past t h j =
  if j < t.len && Array.unsafe_get t.hi j <= h then ends_past t h (j + 1)
  else j

(* Cover [l, h); the run that ends up holding it takes [tag] when the
   set is tagged. *)
let[@vtp.hot] add t l h ~tag =
  if l < h then begin
    let i = seek t (l - 1) in
    let j = starts_past t h i in
    if i = j then begin
      let i = open_slot t i in
      t.lo.(i) <- l;
      t.hi.(i) <- h;
      if t.tagged then t.tag.(i) <- tag
    end
    else begin
      (* the runs [i, j) touch [l, h): they coalesce into run [i] *)
      t.lo.(i) <- Stdlib.min l t.lo.(i);
      t.hi.(i) <- Stdlib.max h t.hi.(j - 1);
      if t.tagged then t.tag.(i) <- tag;
      if j > i + 1 then close_up t (i + 1) j
    end
  end

let[@vtp.hot] cover t l h = add t l h ~tag:0

let[@vtp.hot] remove t l h =
  if l >= h then false
  else begin
    let i = seek t l in
    if i >= t.len || t.lo.(i) >= h then false
    else begin
      if t.lo.(i) < l && t.hi.(i) > h then begin
        (* one run strictly contains [l, h): split it *)
        let i = open_slot t i in
        t.hi.(i) <- l;
        t.lo.(i + 1) <- h
      end
      else begin
        let i = if t.lo.(i) < l then (t.hi.(i) <- l; i + 1) else i in
        let j = ends_past t h i in
        if j < t.len && t.lo.(j) < h then t.lo.(j) <- h;
        if j > i then close_up t i j
      end;
      true
    end
  end

let drop_first t = t.fst <- t.fst + 1

let trim_below t x =
  t.fst <- seek t x;
  if t.fst < t.len && t.lo.(t.fst) < x then t.lo.(t.fst) <- x

let clear t =
  t.fst <- 0;
  t.len <- 0

let rec kth_from_top_at t i k =
  if i < t.fst then min_int
  else
    let w = t.hi.(i) - t.lo.(i) in
    if k <= w then t.hi.(i) - k else kth_from_top_at t (i - 1) (k - w)

let kth_from_top t k = kth_from_top_at t (t.len - 1) k

(* From [a] up to [h], with [i] the first run ending after [a]. *)
let rec iter_gaps_from t i a h f =
  if a < h then
    if i < t.len && t.lo.(i) <= a then
      iter_gaps_from t (i + 1) (Stdlib.max a t.hi.(i)) h f
    else begin
      let stop = if i >= t.len then h else Stdlib.min h t.lo.(i) in
      f a stop;
      iter_gaps_from t i stop h f
    end

let iter_gaps t l h f = iter_gaps_from t (seek t l) l h f
