(* All fields are floats on purpose: an all-float record is flat in
   the OCaml heap, so the per-feedback estimate update writes in place
   instead of boxing a fresh float (a mixed record would).  [count]
   carries an integer value in a float cell for the same reason. *)
type t = {
  mutable estimate : float;
  mutable count : float;
  mutable min_sample : float;
}

(* RFC 3448 §4.3: the filter constant q of R = q*R + (1-q)*R_sample. *)
let q = 0.9

let create ~initial () =
  assert (initial > 0.0);
  { estimate = initial; count = 0.0; min_sample = initial }

let sample t r =
  assert (r > 0.0);
  if Float.equal t.count 0.0 then begin
    t.estimate <- r;
    t.min_sample <- r
  end
  else begin
    t.estimate <- (q *. t.estimate) +. ((1.0 -. q) *. r);
    if r < t.min_sample then t.min_sample <- r
  end;
  t.count <- t.count +. 1.0

let reseed t r =
  assert (r > 0.0);
  t.estimate <- r;
  t.min_sample <- r;
  t.count <- 0.0

let smoothed t = t.estimate

let min_rtt t = t.min_sample

let has_sample t = t.count > 0.0
