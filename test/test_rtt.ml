(* Tfrc.Rtt: EWMA behaviour. *)

let test_seed_used_before_samples () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Alcotest.(check (float 1e-9)) "seed" 0.5 (Tfrc.Rtt.smoothed r);
  Alcotest.(check bool) "no sample yet" false (Tfrc.Rtt.has_sample r)

let test_first_sample_replaces_seed () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Tfrc.Rtt.sample r 0.1;
  Alcotest.(check (float 1e-9)) "first sample wins" 0.1 (Tfrc.Rtt.smoothed r);
  Alcotest.(check bool) "has sample" true (Tfrc.Rtt.has_sample r)

let test_ewma () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Tfrc.Rtt.sample r 0.1;
  Tfrc.Rtt.sample r 0.2;
  (* 0.9*0.1 + 0.1*0.2 = 0.11 *)
  Alcotest.(check (float 1e-9)) "ewma step" 0.11 (Tfrc.Rtt.smoothed r)

let test_converges () =
  let r = Tfrc.Rtt.create ~initial:1.0 () in
  for _ = 1 to 200 do
    Tfrc.Rtt.sample r 0.05
  done;
  Alcotest.(check bool) "converges to steady input" true
    (Float.abs (Tfrc.Rtt.smoothed r -. 0.05) < 0.001)

(* The count of samples is what [has_sample] reads: it grows with each
   sample, and a reseed forgets it. *)
let test_sample_count () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Tfrc.Rtt.sample r 0.1;
  Tfrc.Rtt.sample r 0.1;
  Alcotest.(check bool) "counted" true (Tfrc.Rtt.has_sample r);
  Tfrc.Rtt.reseed r 0.6;
  Alcotest.(check bool) "forgotten on reseed" false (Tfrc.Rtt.has_sample r)

(* The minimum holds the seed until the first sample, which replaces
   it even when larger; later samples only lower it; a reseed (a
   migration) starts over from the new seed. *)
let test_min_rtt () =
  let r = Tfrc.Rtt.create ~initial:0.5 () in
  Alcotest.(check (float 1e-9)) "seed" 0.5 (Tfrc.Rtt.min_rtt r);
  Tfrc.Rtt.sample r 0.8;
  Alcotest.(check (float 1e-9)) "first sample replaces the seed" 0.8
    (Tfrc.Rtt.min_rtt r);
  Tfrc.Rtt.sample r 0.2;
  Tfrc.Rtt.sample r 0.3;
  Alcotest.(check (float 1e-9)) "smallest sample" 0.2 (Tfrc.Rtt.min_rtt r);
  Tfrc.Rtt.reseed r 0.6;
  Alcotest.(check (float 1e-9)) "reseed replaces it" 0.6 (Tfrc.Rtt.min_rtt r);
  Tfrc.Rtt.sample r 0.9;
  Alcotest.(check (float 1e-9)) "next sample replaces the reseed" 0.9
    (Tfrc.Rtt.min_rtt r)

let suite =
  [
    Alcotest.test_case "seed" `Quick test_seed_used_before_samples;
    Alcotest.test_case "first sample" `Quick test_first_sample_replaces_seed;
    Alcotest.test_case "ewma" `Quick test_ewma;
    Alcotest.test_case "convergence" `Quick test_converges;
    Alcotest.test_case "sample count" `Quick test_sample_count;
    Alcotest.test_case "minimum" `Quick test_min_rtt;
  ]
