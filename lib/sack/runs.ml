(* Sorted, coalesced, half-open [lo, hi) runs over absolute positions,
   in growable parallel arrays. *)

type t = { mutable lo : int array; mutable hi : int array; mutable len : int }

let create cap = { lo = Array.make cap 0; hi = Array.make cap 0; len = 0 }

(* Smallest index whose run ends strictly after [x] — the only run that
   can contain [x].  Plain accumulator recursion so the per-packet
   membership test allocates nothing. *)
let[@vtp.hot] rec seek_from t x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get t.hi mid > x then seek_from t x lo mid
    else seek_from t x (mid + 1) hi

let[@vtp.hot] seek t x = seek_from t x 0 t.len

let[@vtp.hot] mem t x =
  let i = seek t x in
  i < t.len && Array.unsafe_get t.lo i <= x

let ensure t extra =
  let cap = Array.length t.lo in
  if t.len + extra > cap then begin
    let ncap = Stdlib.max (t.len + extra) (2 * cap) in
    let nlo = Array.make ncap 0 and nhi = Array.make ncap 0 in
    Array.blit t.lo 0 nlo 0 t.len;
    Array.blit t.hi 0 nhi 0 t.len;
    t.lo <- nlo;
    t.hi <- nhi
  end

(* Replace runs [i, j) by the single run [l, h); [j = i] inserts. *)
let splice t i j l h =
  if j - i = 1 then begin
    t.lo.(i) <- l;
    t.hi.(i) <- h
  end
  else if j > i then begin
    t.lo.(i) <- l;
    t.hi.(i) <- h;
    Array.blit t.lo j t.lo (i + 1) (t.len - j);
    Array.blit t.hi j t.hi (i + 1) (t.len - j);
    t.len <- t.len - (j - i - 1)
  end
  else begin
    ensure t 1;
    Array.blit t.lo i t.lo (i + 1) (t.len - i);
    Array.blit t.hi i t.hi (i + 1) (t.len - i);
    t.lo.(i) <- l;
    t.hi.(i) <- h;
    t.len <- t.len + 1
  end

let add t l h =
  if l < h then begin
    let i = seek t (l - 1) in
    let j = ref i in
    while !j < t.len && t.lo.(!j) <= h do
      incr j
    done;
    if i = !j then splice t i i l h
    else splice t i !j (Stdlib.min l t.lo.(i)) (Stdlib.max h t.hi.(!j - 1))
  end

let remove t l h =
  if l < h then begin
    let i = seek t l in
    if i < t.len && t.lo.(i) < h then begin
      if t.lo.(i) < l && t.hi.(i) > h then begin
        (* one run strictly contains [l, h): split it *)
        ensure t 1;
        Array.blit t.lo i t.lo (i + 1) (t.len - i);
        Array.blit t.hi i t.hi (i + 1) (t.len - i);
        t.len <- t.len + 1;
        t.hi.(i) <- l;
        t.lo.(i + 1) <- h
      end
      else begin
        let i = if t.lo.(i) < l then begin t.hi.(i) <- l; i + 1 end else i in
        let j = ref i in
        while !j < t.len && t.hi.(!j) <= h do
          incr j
        done;
        if !j < t.len && t.lo.(!j) < h then t.lo.(!j) <- h;
        if !j > i then begin
          Array.blit t.lo !j t.lo i (t.len - !j);
          Array.blit t.hi !j t.hi i (t.len - !j);
          t.len <- t.len - (!j - i)
        end
      end
    end
  end

let trim_below t x =
  let i = seek t x in
  if i > 0 then begin
    Array.blit t.lo i t.lo 0 (t.len - i);
    Array.blit t.hi i t.hi 0 (t.len - i);
    t.len <- t.len - i
  end;
  if t.len > 0 && t.lo.(0) < x then t.lo.(0) <- x

let rec kth_from_top_at t i k =
  if i < 0 then min_int
  else
    let w = t.hi.(i) - t.lo.(i) in
    if k <= w then t.hi.(i) - k else kth_from_top_at t (i - 1) (k - w)

let kth_from_top t k = kth_from_top_at t (t.len - 1) k

let iter_gaps t l h f =
  let a = ref l and i = ref (seek t l) in
  while !a < h do
    if !i >= t.len || !a < t.lo.(!i) then begin
      let stop = if !i >= t.len then h else Stdlib.min h t.lo.(!i) in
      f !a stop;
      a := stop
    end
    else begin
      a := Stdlib.max !a t.hi.(!i);
      incr i
    end
  done
