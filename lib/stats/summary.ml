type t = { n : int; mean : float; stddev : float; min : float; max : float }

let of_array xs =
  let n = Array.length xs in
  if n = 0 then { n = 0; mean = nan; stddev = nan; min = nan; max = nan }
  else begin
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let mean = sum /. float_of_int n in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs in
    let stddev = if n < 2 then 0.0 else sqrt (sq /. float_of_int (n - 1)) in
    let min = Array.fold_left Float.min xs.(0) xs in
    let max = Array.fold_left Float.max xs.(0) xs in
    { n; mean; stddev; min; max }
  end

let of_list xs = of_array (Array.of_list xs)

let cov t = if Float.equal t.mean 0.0 then nan else t.stddev /. t.mean

let percentile xs q =
  if Array.length xs = 0 then invalid_arg "Summary.percentile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.percentile: q out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end
