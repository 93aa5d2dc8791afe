(* Unboxed 32-bit serial arithmetic.

   Values are kept canonical in [0, 2^32) inside a native int, so every
   operation below is straight-line integer arithmetic with no
   allocation — the previous int32 representation boxed every result,
   which priced a heap word pair into each seq-number touch on the
   per-packet path.  [diff] sign-extends the low 32 bits of the plain
   difference, which is exactly int32 subtraction's wrap-around. *)

type t = int

let mask = 0xFFFFFFFF

let zero = 0

let of_int i = i land mask

let to_int t = t

let succ t = (t + 1) land mask

let pred t = (t - 1) land mask

let add t n = (t + n) land mask

(* Signed circular distance in [-2^31, 2^31): two's-complement
   sign-extension of the low 32 bits of (a - b). *)
let diff a b = (((a - b) land mask) lxor 0x80000000) - 0x80000000

let compare a b = Stdlib.compare (diff a b) 0

let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let equal (a : t) (b : t) = Stdlib.( = ) a b
let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b
let min a b = if Stdlib.( <= ) (compare a b) 0 then a else b

let pp fmt t = Format.fprintf fmt "%u" t

let to_string t = Format.asprintf "%a" pp t

let iter_range f lo hi =
  let n = diff hi lo in
  for i = 0 to Stdlib.( - ) n 1 do
    f (add lo i)
  done
