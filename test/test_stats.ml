(* Stats: summary, series, fairness, cost, table. *)

let test_summary_moments () =
  let s = Stats.Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check int) "n" 8 s.Stats.Summary.n;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.Summary.mean;
  Alcotest.(check (float 1e-6)) "sample sd" 2.13809 s.Stats.Summary.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.Summary.max

let test_summary_empty () =
  let s = Stats.Summary.of_list [] in
  Alcotest.(check int) "n" 0 s.Stats.Summary.n;
  Alcotest.(check bool) "nan mean" true (Float.is_nan s.Stats.Summary.mean)

let test_summary_single () =
  let s = Stats.Summary.of_list [ 3.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.Summary.mean;
  Alcotest.(check (float 1e-9)) "sd 0" 0.0 s.Stats.Summary.stddev

let test_cov () =
  let s = Stats.Summary.of_list [ 1.0; 3.0 ] in
  Alcotest.(check bool) "cov" true
    (Float.abs (Stats.Summary.cov s -. (sqrt 2.0 /. 2.0)) < 1e-9)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Summary.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.Summary.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.Summary.percentile xs 1.0);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.0
    (Stats.Summary.percentile xs 0.25)

let test_percentile_boundaries () =
  (* Out-of-range q and empty input must raise, not clamp. *)
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty raises" true
    (raises (fun () -> Stats.Summary.percentile [||] 0.5));
  Alcotest.(check bool) "q < 0 raises" true
    (raises (fun () -> Stats.Summary.percentile [| 1.0 |] (-0.01)));
  Alcotest.(check bool) "q > 1 raises" true
    (raises (fun () -> Stats.Summary.percentile [| 1.0 |] 1.01));
  (* A single sample is every quantile of itself. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single sample p%g" (100.0 *. q))
        7.0
        (Stats.Summary.percentile [| 7.0 |] q))
    [ 0.0; 0.25; 0.5; 1.0 ];
  (* Unsorted input: percentile sorts a copy and leaves it alone. *)
  let xs = [| 5.0; 1.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "median of unsorted" 3.0
    (Stats.Summary.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "input untouched" 5.0 xs.(0);
  (* Two samples: q interpolates the full span linearly. *)
  Alcotest.(check (float 1e-9)) "p75 of a pair" 3.5
    (Stats.Summary.percentile [| 2.0; 4.0 |] 0.75)

let test_series_empty () =
  let s = Stats.Series.create () in
  Alcotest.(check int) "count" 0 (Stats.Series.count s);
  Alcotest.(check int) "total" 0 (Stats.Series.total_bytes s);
  Alcotest.(check (float 1e-9)) "rate over empty" 0.0
    (Stats.Series.rate_bps s ~from_:0.0 ~until:10.0);
  Alcotest.(check int) "no interarrivals" 0
    (Array.length (Stats.Series.interarrival_times s));
  Alcotest.(check int) "windows all zero" 0
    (Array.fold_left
       (fun acc r -> acc + if r > 0.0 then 1 else 0)
       0
       (Stats.Series.windowed_rates_bps s ~from_:0.0 ~until:4.0 ~window:1.0))

let test_series_single_sample () =
  let s = Stats.Series.create () in
  Stats.Series.record s ~time:1.5 ~bytes:1000;
  Alcotest.(check (float 1e-9)) "rate counts the one event" 8000.0
    (Stats.Series.rate_bps s ~from_:1.0 ~until:2.0);
  (* Interval edges are [from_, until): the sample sits on the closed
     edge when from_ = its time, outside when until = its time. *)
  Alcotest.(check (float 1e-9)) "closed lower edge" 8000.0
    (Stats.Series.rate_bps s ~from_:1.5 ~until:2.5);
  Alcotest.(check (float 1e-9)) "open upper edge" 0.0
    (Stats.Series.rate_bps s ~from_:0.5 ~until:1.5);
  Alcotest.(check int) "one event, no gaps" 0
    (Array.length (Stats.Series.interarrival_times s));
  (* Degenerate interval: empty, not a division by zero. *)
  Alcotest.(check (float 1e-9)) "empty interval" 0.0
    (Stats.Series.rate_bps s ~from_:1.5 ~until:1.5)

let test_series_partial_window_discarded () =
  let s = Stats.Series.create () in
  List.iter
    (fun (t, b) -> Stats.Series.record s ~time:t ~bytes:b)
    [ (0.5, 100); (1.5, 200); (2.2, 400) ];
  (* [0, 2.5) with window 1.0: two full bins, the trailing half bin
     (holding the 400-byte event) is discarded. *)
  let w = Stats.Series.windowed_rates_bps s ~from_:0.0 ~until:2.5 ~window:1.0 in
  Alcotest.(check int) "two full bins" 2 (Array.length w);
  Alcotest.(check (float 1e-9)) "bin 0" 800.0 w.(0);
  Alcotest.(check (float 1e-9)) "bin 1" 1600.0 w.(1)

let test_series_rate () =
  let s = Stats.Series.create () in
  Stats.Series.record s ~time:1.0 ~bytes:1000;
  Stats.Series.record s ~time:2.0 ~bytes:1000;
  Stats.Series.record s ~time:3.0 ~bytes:1000;
  (* [1,3): 2000 bytes over 2 s = 8000 b/s *)
  Alcotest.(check (float 1e-9)) "rate" 8000.0
    (Stats.Series.rate_bps s ~from_:1.0 ~until:3.0);
  Alcotest.(check int) "total" 3000 (Stats.Series.total_bytes s);
  Alcotest.(check int) "count" 3 (Stats.Series.count s)

let test_series_windows () =
  let s = Stats.Series.create () in
  List.iter
    (fun (t, b) -> Stats.Series.record s ~time:t ~bytes:b)
    [ (0.1, 100); (0.9, 100); (1.5, 400) ];
  let w = Stats.Series.windowed_rates_bps s ~from_:0.0 ~until:2.0 ~window:1.0 in
  Alcotest.(check int) "two windows" 2 (Array.length w);
  Alcotest.(check (float 1e-9)) "w0" 1600.0 w.(0);
  Alcotest.(check (float 1e-9)) "w1" 3200.0 w.(1)

let test_series_interarrival () =
  let s = Stats.Series.create () in
  List.iter
    (fun t -> Stats.Series.record s ~time:t ~bytes:1)
    [ 1.0; 1.5; 2.5 ];
  Alcotest.(check (array (float 1e-9))) "gaps" [| 0.5; 1.0 |]
    (Stats.Series.interarrival_times s)

let test_jain () =
  Alcotest.(check (float 1e-9)) "equal shares" 1.0
    (Stats.Fairness.jain [| 3.0; 3.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "one hog" (1.0 /. 3.0)
    (Stats.Fairness.jain [| 9.0; 0.0; 0.0 |]);
  Alcotest.(check bool) "between" true
    (let j = Stats.Fairness.jain [| 4.0; 2.0 |] in
     j > 0.5 && j < 1.0)

let test_throughput_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 2.0
    (Stats.Fairness.throughput_ratio [| 4.0; 4.0 |] [| 2.0; 2.0 |])

let test_cost () =
  let c = Stats.Cost.create () in
  Stats.Cost.charge c "a";
  Stats.Cost.charge c ~ops:5 "a";
  Stats.Cost.charge c "b";
  Alcotest.(check int) "a" 6 (Stats.Cost.ops c "a");
  Alcotest.(check int) "b" 1 (Stats.Cost.ops c "b");
  Alcotest.(check int) "absent" 0 (Stats.Cost.ops c "zzz");
  Alcotest.(check int) "total" 7 (Stats.Cost.total_ops c);
  Stats.Cost.watermark c "mem" 10;
  Stats.Cost.watermark c "mem" 7;
  Stats.Cost.watermark c "mem" 12;
  Alcotest.(check int) "high water" 12 (Stats.Cost.high_water c "mem");
  Alcotest.(check (list (pair string int))) "counters sorted"
    [ ("a", 6); ("b", 1) ]
    (Stats.Cost.counters c)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let test_table_render () =
  let t =
    Stats.Table.create ~title:"T"
      ~columns:[ ("name", Stats.Table.Left); ("v", Stats.Table.Right) ]
  in
  Stats.Table.add_row t [ "x"; "1.00" ];
  Stats.Table.add_row t [ "longer"; "23.00" ];
  let out = Stats.Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0 && out.[0] = 'T');
  Alcotest.(check bool) "contains row" true (contains out "longer");
  Alcotest.(check bool) "right-aligned number padded" true
    (contains out " 1.00 |")

let test_table_arity_checked () =
  let t =
    Stats.Table.create ~title:"T" ~columns:[ ("a", Stats.Table.Left) ]
  in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       Stats.Table.add_row t [ "1"; "2" ];
       false
     with Invalid_argument _ -> true)

let test_cells () =
  Alcotest.(check string) "float" "1.23" (Stats.Table.cell_f 1.234);
  Alcotest.(check string) "decimals" "1.2340" (Stats.Table.cell_f ~decimals:4 1.234);
  Alcotest.(check string) "nan" "-" (Stats.Table.cell_f nan);
  Alcotest.(check string) "int" "42" (Stats.Table.cell_i 42)

let test_csv () =
  let t =
    Stats.Table.create ~title:"My, Title"
      ~columns:[ ("a", Stats.Table.Left); ("b,c", Stats.Table.Right) ]
  in
  Stats.Table.add_row t [ "plain"; "1.00" ];
  Stats.Table.add_row t [ "has,comma"; "say \"hi\"" ];
  let csv = Stats.Table.to_csv t in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "title comment" "# My, Title" (List.nth lines 0);
  Alcotest.(check string) "header quoted" "a,\"b,c\"" (List.nth lines 1);
  Alcotest.(check string) "plain row" "plain,1.00" (List.nth lines 2);
  Alcotest.(check string) "quoted row" "\"has,comma\",\"say \"\"hi\"\"\""
    (List.nth lines 3)

let suite =
  [
    Alcotest.test_case "summary moments" `Quick test_summary_moments;
    Alcotest.test_case "csv export" `Quick test_csv;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "summary single" `Quick test_summary_single;
    Alcotest.test_case "cov" `Quick test_cov;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile boundaries" `Quick
      test_percentile_boundaries;
    Alcotest.test_case "series empty" `Quick test_series_empty;
    Alcotest.test_case "series single sample" `Quick
      test_series_single_sample;
    Alcotest.test_case "series partial window" `Quick
      test_series_partial_window_discarded;
    Alcotest.test_case "series rate" `Quick test_series_rate;
    Alcotest.test_case "series windows" `Quick test_series_windows;
    Alcotest.test_case "series interarrival" `Quick test_series_interarrival;
    Alcotest.test_case "jain" `Quick test_jain;
    Alcotest.test_case "throughput ratio" `Quick test_throughput_ratio;
    Alcotest.test_case "cost" `Quick test_cost;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity_checked;
    Alcotest.test_case "cells" `Quick test_cells;
  ]
