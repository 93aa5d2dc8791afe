(* Growable circular FIFO over a flat array.  Unlike [Queue.t], push and
   pop allocate nothing in steady state (Queue allocates a cons cell per
   element); the array doubles on overflow and vacated slots are
   overwritten with [dummy] so the ring never pins popped values. *)

type 'a t = {
  dummy : 'a;
  mutable arr : 'a array;
  mutable head : int;  (** index of the oldest element *)
  mutable n : int;
}

let create ~dummy = { dummy; arr = Array.make 8 dummy; head = 0; n = 0 }

let length t = t.n

let is_empty t = t.n = 0

let grow t =
  let cap = Array.length t.arr in
  let arr = Array.make (2 * cap) t.dummy in
  let tail = cap - t.head in
  Array.blit t.arr t.head arr 0 tail;
  Array.blit t.arr 0 arr tail (cap - tail);
  t.arr <- arr;
  t.head <- 0

let[@vtp.hot] push t x =
  if t.n = Array.length t.arr then grow t;
  let i = t.head + t.n in
  let cap = Array.length t.arr in
  t.arr.(if i >= cap then i - cap else i) <- x;
  t.n <- t.n + 1

let[@vtp.hot] pop t =
  if t.n = 0 then invalid_arg "Ring.pop: empty";
  let x = t.arr.(t.head) in
  t.arr.(t.head) <- t.dummy;
  t.head <- (if t.head + 1 = Array.length t.arr then 0 else t.head + 1);
  t.n <- t.n - 1;
  x
