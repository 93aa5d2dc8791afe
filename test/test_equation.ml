(* Tfrc.Equation: known values, monotonicity, inverse. *)

let test_no_loss_infinite () =
  Alcotest.(check bool) "p=0 -> infinity" true
    (Float.is_integer (Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:0.0) = false
     && Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:0.0 = infinity)

let test_reference_point () =
  (* The simplified (first-term) equation gives s/(R*sqrt(2p/3));
     with the full RTO term the rate must be strictly below that. *)
  let s = 1500 and r = 0.1 and p = 0.01 in
  let x = Tfrc.Equation.rate ~s ~r ~p in
  let simple = float_of_int s /. (r *. sqrt (2.0 *. p /. 3.0)) in
  Alcotest.(check bool) "below sqrt-only model" true (x < simple);
  Alcotest.(check bool) "same ballpark" true (x > simple /. 2.0)

let test_decreasing_in_p () =
  let rate p = Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p in
  let ps = [ 0.001; 0.005; 0.01; 0.05; 0.1; 0.3; 1.0 ] in
  let rec check = function
    | a :: b :: rest ->
        Alcotest.(check bool)
          (Printf.sprintf "rate(%f) > rate(%f)" a b)
          true
          (rate a > rate b);
        check (b :: rest)
    | _ -> ()
  in
  check ps

let test_decreasing_in_r () =
  Alcotest.(check bool) "longer RTT, lower rate" true
    (Tfrc.Equation.rate ~s:1500 ~r:0.05 ~p:0.01
    > Tfrc.Equation.rate ~s:1500 ~r:0.2 ~p:0.01)

let test_linear_in_s () =
  let x1 = Tfrc.Equation.rate ~s:500 ~r:0.1 ~p:0.01 in
  let x3 = Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:0.01 in
  Alcotest.(check (float 1e-6)) "scales with s" 3.0 (x3 /. x1)

let test_rate_bps () =
  Alcotest.(check (float 1e-6)) "bps = 8 x bytes"
    (8.0 *. Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:0.02)
    (Tfrc.Equation.rate_bps ~s:1500 ~r:0.1 ~p:0.02)

let test_inverse_roundtrip () =
  List.iter
    (fun p_true ->
      let target = Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:p_true in
      let p_found = Tfrc.Equation.loss_rate_for ~s:1500 ~r:0.1 ~target in
      Alcotest.(check bool)
        (Printf.sprintf "inverse(%f): %f" p_true p_found)
        true
        (Float.abs (p_found -. p_true) /. p_true < 1e-3))
    [ 0.001; 0.01; 0.05; 0.2 ]

let test_inverse_extremes () =
  (* Ludicrously low target -> p saturates at 1. *)
  Alcotest.(check (float 1e-9)) "tiny target" 1.0
    (Tfrc.Equation.loss_rate_for ~s:1500 ~r:0.1 ~target:1.0);
  (* Huge target -> p floors near 0. *)
  Alcotest.(check bool) "huge target" true
    (Tfrc.Equation.loss_rate_for ~s:1500 ~r:0.1 ~target:1e12 < 1e-6)

let prop_inverse_consistent =
  QCheck.Test.make ~name:"rate(loss_rate_for target) ~ target" ~count:200
    QCheck.(pair (float_range 0.01 0.5) (float_range 1e4 1e8))
    (fun (r, target) ->
      let p = Tfrc.Equation.loss_rate_for ~s:1500 ~r ~target in
      if p >= 1.0 || p <= 1e-8 then true
      else begin
        let x = Tfrc.Equation.rate ~s:1500 ~r ~p in
        Float.abs (x -. target) /. target < 0.01
      end)

(* Golden values computed by hand from the RFC 3448 formula with b=1,
   t_RTO=4R, locking the implementation against silent drift:
   X = s / (R*sqrt(2p/3) + 4R*3*sqrt(3p/8)*p*(1+32p^2)). *)
let test_golden_values () =
  let check ~s ~r ~p ~expect =
    let x = Tfrc.Equation.rate ~s ~r ~p in
    Alcotest.(check bool)
      (Printf.sprintf "X(s=%d,R=%g,p=%g) = %.6g, got %.6g" s r p expect x)
      true
      (Float.abs (x -. expect) /. expect < 1e-5)
  in
  (* s=1500, R=0.1, p=0.01:
     root1 = sqrt(0.02/3) = 0.0816497, term1 = 0.00816497
     root2 = sqrt(0.0075/2)... = sqrt(3*0.01/8) = 0.0612372
     term2 = 0.4*3*0.0612372*0.01*(1+0.0032) = 0.000737082
     X = 1500/0.0089021 = 168 498.35 B/s *)
  check ~s:1500 ~r:0.1 ~p:0.01 ~expect:168498.35;
  (* s=1000, R=0.05, p=0.1:
     term1 = 0.05*sqrt(0.2/3) = 0.0129099
     term2 = 0.2*3*sqrt(0.3/8)*0.1*(1+0.32) = 0.2*3*0.193649*0.1*1.32
           = 0.01533704
     X = 1000/0.0282470 = 35 402.04 *)
  check ~s:1000 ~r:0.05 ~p:0.1 ~expect:35402.04;
  (* s=1460, R=0.2, p=0.001 (a low-loss TCP-segment point):
     term1 = 0.2*sqrt(0.002/3) = 0.2*0.0258199 = 0.00516398
     term2 = 0.8*3*sqrt(0.003/8)*0.001*(1+3.2e-5)
           = 0.8*3*0.0193649*0.001*1.000032 = 4.64776e-5
     X = 1460/0.00521046 = 280 205.85 B/s *)
  check ~s:1460 ~r:0.2 ~p:0.001 ~expect:280205.85;
  (* p=1 (every packet a loss event, the worst-case floor):
     term1 = 0.1*sqrt(2/3) = 0.0816497
     term2 = 0.4*3*sqrt(3/8)*1*(1+32) = 1.2*0.6123724*33 = 24.2499484
     X = 1500/24.3315981 = 61.648 B/s *)
  check ~s:1500 ~r:0.1 ~p:1.0 ~expect:61.648232

(* RFC 3448 treats p as a probability: values above 1 are meaningless
   and the implementation clamps them, so the worst-case rate floor at
   p=1 also bounds any overshooting estimator. *)
let test_p_clamped_at_one () =
  Alcotest.(check (float 1e-9))
    "rate(p=5) = rate(p=1)"
    (Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:1.0)
    (Tfrc.Equation.rate ~s:1500 ~r:0.1 ~p:5.0)

(* As p -> 0 the RTO term vanishes and X approaches the first-term
   model s/(R*sqrt(2p/3)) from below; the term ratio is exactly
   t_RTO/R * 3*sqrt(3p/8)*p*(1+32p^2) / sqrt(2p/3) = 9p(1+32p^2)
   with t_RTO = 4R, so at p = 1e-6 the relative gap is ~9e-6. *)
let test_asymptote_near_zero () =
  let s = 1500 and r = 0.1 and p = 1e-6 in
  let x = Tfrc.Equation.rate ~s ~r ~p in
  let simple = float_of_int s /. (r *. sqrt (2.0 *. p /. 3.0)) in
  let ratio = x /. simple in
  Alcotest.(check bool)
    (Printf.sprintf "X/simple = %.8f in [1-2e-5, 1)" ratio)
    true
    (ratio < 1.0 && ratio > 1.0 -. 2e-5)

let suite =
  [
    Alcotest.test_case "golden values" `Quick test_golden_values;
    Alcotest.test_case "p clamped at 1" `Quick test_p_clamped_at_one;
    Alcotest.test_case "p->0 asymptote" `Quick test_asymptote_near_zero;
    Alcotest.test_case "p=0 -> infinity" `Quick test_no_loss_infinite;
    Alcotest.test_case "reference point" `Quick test_reference_point;
    Alcotest.test_case "decreasing in p" `Quick test_decreasing_in_p;
    Alcotest.test_case "decreasing in R" `Quick test_decreasing_in_r;
    Alcotest.test_case "linear in s" `Quick test_linear_in_s;
    Alcotest.test_case "rate_bps" `Quick test_rate_bps;
    Alcotest.test_case "inverse round-trip" `Quick test_inverse_roundtrip;
    Alcotest.test_case "inverse extremes" `Quick test_inverse_extremes;
    QCheck_alcotest.to_alcotest prop_inverse_consistent;
  ]
