let[@vtp.hot] rate ~s ~r ~p =
  assert (s > 0 && r > 0.0);
  if p <= 0.0 then infinity
  else begin
    let p = Float.min p 1.0 in
    (* TFRC fixes b = 1 packet per ACK and t_RTO = 4R (RFC 3448 §3.1). *)
    let b = 1.0 and t_rto = 4.0 *. r in
    let root1 = sqrt (2.0 *. b *. p /. 3.0) in
    let root2 = sqrt (3.0 *. b *. p /. 8.0) in
    let denom =
      (r *. root1) +. (t_rto *. 3.0 *. root2 *. p *. (1.0 +. (32.0 *. p *. p)))
    in
    float_of_int s /. denom
  end

let rate_bps ~s ~r ~p = 8.0 *. rate ~s ~r ~p

let loss_rate_for ~s ~r ~target =
  assert (target > 0.0);
  let f p = rate ~s ~r ~p in
  let lo = 1e-8 and hi = 1.0 in
  if f hi >= target then 1.0
  else if f lo <= target then lo
  else begin
    (* rate is decreasing in p: bisect for f p = target. *)
    let rec bisect lo hi n =
      if n = 0 then (lo +. hi) /. 2.0
      else begin
        let mid = (lo +. hi) /. 2.0 in
        if f mid > target then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      end
    in
    bisect lo hi 60
  end
