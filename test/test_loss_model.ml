(* Netsim.Loss_model: stationary rates and burstiness. *)

let count_drops lm n =
  let d = ref 0 in
  for _ = 1 to n do
    if Netsim.Loss_model.drops lm then incr d
  done;
  float_of_int !d /. float_of_int n

let test_none () =
  Alcotest.(check (float 0.0)) "never drops" 0.0
    (count_drops Netsim.Loss_model.none 1000);
  Alcotest.(check (float 0.0)) "expected 0" 0.0
    (Netsim.Loss_model.expected_loss_rate Netsim.Loss_model.none)

let test_bernoulli_rate () =
  let rng = Engine.Rng.create ~seed:51 in
  let lm = Netsim.Loss_model.bernoulli ~p:0.05 ~rng in
  let rate = count_drops lm 100_000 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %f ~ 0.05" rate)
    true
    (Float.abs (rate -. 0.05) < 0.005);
  Alcotest.(check (float 1e-9)) "expected" 0.05
    (Netsim.Loss_model.expected_loss_rate lm)

let test_gilbert_stationary_rate () =
  let rng = Engine.Rng.create ~seed:53 in
  let lm =
    Netsim.Loss_model.gilbert_elliott ~p_good_to_bad:0.01 ~p_bad_to_good:0.2
      ~loss_good:0.0 ~loss_bad:0.5 ~rng
  in
  let expected = Netsim.Loss_model.expected_loss_rate lm in
  (* pi_bad = 0.01/0.21; expected = pi_bad * 0.5 *)
  Alcotest.(check (float 1e-9)) "analytic stationary rate"
    (0.01 /. 0.21 *. 0.5) expected;
  let rate = count_drops lm 200_000 in
  Alcotest.(check bool)
    (Printf.sprintf "measured %f ~ expected %f" rate expected)
    true
    (Float.abs (rate -. expected) < 0.005)

let burst_lengths lm n =
  (* Mean length of consecutive-drop runs. *)
  let runs = ref [] and cur = ref 0 in
  for _ = 1 to n do
    if Netsim.Loss_model.drops lm then incr cur
    else if !cur > 0 then begin
      runs := !cur :: !runs;
      cur := 0
    end
  done;
  match !runs with
  | [] -> 0.0
  | rs ->
      float_of_int (List.fold_left ( + ) 0 rs) /. float_of_int (List.length rs)

let test_gilbert_burstier_than_bernoulli () =
  let rng1 = Engine.Rng.create ~seed:55 in
  let rng2 = Engine.Rng.create ~seed:56 in
  let bursty =
    Netsim.Loss_model.gilbert ~loss:0.05 ~burstiness:0.9 ~rng:rng1
  in
  let random = Netsim.Loss_model.bernoulli ~p:0.05 ~rng:rng2 in
  let bl = burst_lengths bursty 200_000 in
  let rl = burst_lengths random 200_000 in
  Alcotest.(check bool)
    (Printf.sprintf "gilbert bursts (%f) longer than bernoulli (%f)" bl rl)
    true (bl > rl *. 1.5)

let test_gilbert_calibration () =
  (* Loss_model.gilbert must hit the requested stationary rate at every
     burstiness; above a third, only bursty enough chains exist. *)
  let grid =
    List.concat_map
      (fun loss ->
        List.map (fun b -> (loss, b)) [ 0.0; 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ])
      [ 1e-4; 0.001; 0.01; 0.03; 0.05; 0.1; 0.2; 0.3; 1.0 /. 3.0 ]
    @ [ (0.4, 0.7); (0.45, 0.9); (0.45, 1.0); (0.47, 1.0) ]
  in
  List.iter
    (fun (target, burstiness) ->
      let rng = Engine.Rng.create ~seed:57 in
      let lm = Netsim.Loss_model.gilbert ~loss:target ~burstiness ~rng in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "stationary loss at (%g, %g)" target burstiness)
        target
        (Netsim.Loss_model.expected_loss_rate lm))
    grid;
  List.iter
    (fun target ->
      let rng = Engine.Rng.create ~seed:57 in
      let lm = Netsim.Loss_model.gilbert ~loss:target ~burstiness:0.5 ~rng in
      let measured = count_drops lm 300_000 in
      Alcotest.(check bool)
        (Printf.sprintf "measured %f ~ %f" measured target)
        true
        (Float.abs (measured -. target) < 0.2 *. target))
    [ 0.01; 0.05; 0.1 ]

let raises_invalid name f =
  match f () with
  | (_ : Netsim.Loss_model.t) -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument _ -> ()

let test_out_of_range_rejected () =
  let rng = Engine.Rng.create ~seed:59 in
  List.iter
    (fun loss ->
      raises_invalid (Printf.sprintf "gilbert loss %g" loss) (fun () ->
          Netsim.Loss_model.gilbert ~loss ~burstiness:0.5 ~rng))
    [ 0.0; -0.1; 0.5; 0.6; 1.5; Float.nan ];
  List.iter
    (fun burstiness ->
      raises_invalid (Printf.sprintf "gilbert burstiness %g" burstiness)
        (fun () -> Netsim.Loss_model.gilbert ~loss:0.02 ~burstiness ~rng))
    [ -0.1; 1.5; Float.nan ];
  (* In range, but no chain of this shape reaches the loss. *)
  List.iter
    (fun (loss, burstiness) ->
      raises_invalid (Printf.sprintf "gilbert (%g, %g)" loss burstiness)
        (fun () -> Netsim.Loss_model.gilbert ~loss ~burstiness ~rng))
    [ (0.34, 0.0); (0.4, 0.5); (0.45, 0.0); (0.49, 1.0) ];
  List.iter
    (fun p ->
      raises_invalid (Printf.sprintf "bernoulli p %g" p) (fun () ->
          Netsim.Loss_model.bernoulli ~p ~rng))
    [ -0.1; 1.5; Float.nan ]

let suite =
  [
    Alcotest.test_case "none" `Quick test_none;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "gilbert stationary rate" `Quick
      test_gilbert_stationary_rate;
    Alcotest.test_case "gilbert burstiness" `Quick
      test_gilbert_burstier_than_bernoulli;
    Alcotest.test_case "gilbert calibration" `Quick test_gilbert_calibration;
    Alcotest.test_case "out-of-range input rejected" `Quick
      test_out_of_range_rejected;
  ]
