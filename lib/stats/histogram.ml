type t = {
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if bins < 1 then invalid_arg "Histogram.create: bins < 1";
  if not (lo < hi) then invalid_arg "Histogram.create: lo >= hi";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bin_index t x =
  let bins = Array.length t.counts in
  let raw =
    int_of_float (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo))
  in
  Stdlib.max 0 (Stdlib.min (bins - 1) raw)

let add t x =
  t.counts.(bin_index t x) <- t.counts.(bin_index t x) + 1;
  t.total <- t.total + 1

let of_samples ?(bins = 20) samples =
  if Array.length samples = 0 then invalid_arg "Histogram.of_samples: empty";
  let lo = Array.fold_left Float.min samples.(0) samples in
  let hi = Array.fold_left Float.max samples.(0) samples in
  let lo, hi = if lo = hi then (lo -. 0.5, hi +. 0.5) else (lo, hi) in
  (* Widen the top edge so the maximum falls inside the last bin. *)
  let hi = hi +. ((hi -. lo) *. 1e-9) in
  let t = create ~lo ~hi ~bins in
  Array.iter (add t) samples;
  t

let count t = t.total

let bin_counts t = Array.copy t.counts

let bin_bounds t =
  let bins = Array.length t.counts in
  let w = (t.hi -. t.lo) /. float_of_int bins in
  Array.init bins (fun i ->
      (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w)))

let render ?(width = 40) t =
  let peak = Array.fold_left Stdlib.max 1 t.counts in
  let bounds = bin_bounds t in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i c ->
      let lo, hi = bounds.(i) in
      let bar_len = c * width / peak in
      Buffer.add_string buf
        (Printf.sprintf "[%10.4g, %10.4g) %6d %s\n" lo hi c
           (String.make bar_len '#')))
    t.counts;
  Buffer.contents buf
