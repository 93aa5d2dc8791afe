(* Growable unboxed float vector.

   A [float list] accumulator costs five words per sample (cons cell +
   boxed float); this costs one word amortised, because OCaml flat
   float arrays store doubles unboxed.  Used for per-flow sample
   streams (delivery delays) that are only inspected after the run. *)

type t = { mutable buf : float array; mutable len : int }

let create () = { buf = Array.make 16 0.0; len = 0 }

let[@vtp.hot] push t v =
  if t.len = Array.length t.buf then begin
    let buf = Array.make (2 * t.len) 0.0 in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  Array.unsafe_set t.buf t.len v;
  t.len <- t.len + 1

let to_array t = Array.sub t.buf 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.buf i)
  done
