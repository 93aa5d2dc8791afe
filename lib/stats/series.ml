type t = {
  mutable times : float array;
  mutable bytes : int array;
  mutable len : int;
  mutable total : int;
}

let create () = { times = [||]; bytes = [||]; len = 0; total = 0 }

let ensure t =
  if t.len >= Array.length t.times then begin
    let cap = Stdlib.max 64 (2 * Array.length t.times) in
    let times = Array.make cap 0.0 and bytes = Array.make cap 0 in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.bytes 0 bytes 0 t.len;
    t.times <- times;
    t.bytes <- bytes
  end

let record t ~time ~bytes =
  assert (t.len = 0 || time >= t.times.(t.len - 1));
  ensure t;
  t.times.(t.len) <- time;
  t.bytes.(t.len) <- bytes;
  t.len <- t.len + 1;
  t.total <- t.total + bytes

let total_bytes t = t.total

let count t = t.len

let bytes_in t ~from_ ~until =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    if t.times.(i) >= from_ && t.times.(i) < until then acc := !acc + t.bytes.(i)
  done;
  !acc

let rate_bps t ~from_ ~until =
  if until <= from_ then 0.0
  else 8.0 *. float_of_int (bytes_in t ~from_ ~until) /. (until -. from_)

let windowed_rates_bps t ~from_ ~until ~window =
  assert (window > 0.0);
  let n = int_of_float (Float.floor ((until -. from_) /. window)) in
  let out = Array.make (Stdlib.max 0 n) 0.0 in
  for i = 0 to t.len - 1 do
    let ts = t.times.(i) in
    if ts >= from_ && ts < until then begin
      let bin = int_of_float ((ts -. from_) /. window) in
      if bin >= 0 && bin < n then
        out.(bin) <- out.(bin) +. (8.0 *. float_of_int t.bytes.(i) /. window)
    end
  done;
  out

let interarrival_times t =
  if t.len < 2 then [||]
  else Array.init (t.len - 1) (fun i -> t.times.(i + 1) -. t.times.(i))
