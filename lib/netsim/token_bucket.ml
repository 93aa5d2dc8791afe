type t = {
  rate_bytes : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

let create ~rate_bps ~burst ~now =
  assert (rate_bps >= 0.0 && burst > 0);
  {
    rate_bytes = rate_bps /. 8.0;
    burst = float_of_int burst;
    tokens = float_of_int burst;
    last = now;
  }

let refill t ~now =
  if now > t.last then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate_bytes));
    t.last <- now
  end

let conform t ~now ~bytes =
  refill t ~now;
  let need = float_of_int bytes in
  if t.tokens >= need then begin
    t.tokens <- t.tokens -. need;
    true
  end
  else false

let level t ~now =
  refill t ~now;
  t.tokens
