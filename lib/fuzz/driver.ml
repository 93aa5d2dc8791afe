type found = {
  report : Exec.report;
  shrunk : Shrink.outcome option;
}

type soak = {
  runs : int;
  found : found list;  (** failing scenarios, in seed order *)
  handshake_timeouts : int;
}

(* A failure "persists" under shrinking if the shrunk scenario still
   fails at all — any violation or oracle breach in a strictly simpler
   scenario is at least as interesting as the original. *)
let still_fails sc = not (Exec.passed (Exec.run sc))

let run_scenario ?(shrink = false) sc =
  let report = Exec.run sc in
  if Exec.passed report then { report; shrunk = None }
  else if not shrink then { report; shrunk = None }
  else { report; shrunk = Some (Shrink.shrink ~still_fails sc) }

(* A report is a pure function of its scenario, so its rendering is a
   stable fingerprint: the @par-smoke gate diffs these digests across
   --jobs values to prove schedule independence. *)
let digest (r : Exec.report) =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Exec.pp_report r))

(* Shared fan-out core: execute every scenario (on [jobs] domains when
   that is more than one), then aggregate and fire the progress
   callback sequentially in submission order — so logs and summaries
   are byte-identical whatever --jobs was. *)
let run_batch ?(shrink = false) ?progress ?jobs scenarios =
  let results = Engine.Pool.map ?jobs (run_scenario ~shrink) scenarios in
  let found = ref [] in
  let timeouts = ref 0 in
  Array.iteri
    (fun i f ->
      timeouts := !timeouts + f.report.Exec.handshake_timeouts;
      if not (Exec.passed f.report) then found := f :: !found;
      match progress with
      | Some p -> p scenarios.(i).Scenario.seed f.report
      | None -> ())
    results;
  {
    runs = Array.length scenarios;
    found = List.rev !found;
    handshake_timeouts = !timeouts;
  }

let soak ?(base = 1) ?(band = `Std) ?shrink ?progress ?jobs ~seeds () =
  run_batch ?shrink ?progress ?jobs
    (Array.init seeds (fun i -> Scenario.generate_in ~band ~seed:(base + i)))

let run_seeds ?(band = `Std) ?shrink ?progress ?jobs seeds =
  run_batch ?shrink ?progress ?jobs
    (Array.of_list
       (List.map (fun seed -> Scenario.generate_in ~band ~seed) seeds))

(* ------------------------------------------------------------------ *)
(* Profile / reliability matrix *)

let matrix_cells =
  [
    Scenario.P_tfrc;
    Scenario.P_full;
    Scenario.P_af 0.3;
    Scenario.P_light Qtp.Capabilities.R_none;
    Scenario.P_light Qtp.Capabilities.R_partial;
    Scenario.P_light Qtp.Capabilities.R_full;
  ]

let matrix ?(base = 1) ?shrink ?progress ?jobs ~seeds_per_cell () =
  let cells = Array.of_list matrix_cells in
  let scenarios =
    Array.init
      (Array.length cells * seeds_per_cell)
      (fun k ->
        let cell = k / seeds_per_cell and i = k mod seeds_per_cell in
        let seed = base + (cell * seeds_per_cell) + i in
        { (Scenario.generate ~seed) with Scenario.profile = cells.(cell) })
  in
  run_batch ?shrink ?progress ?jobs scenarios

(* ------------------------------------------------------------------ *)
(* Fixed smoke corpus: the seeds dune's @fuzz-smoke alias replays on
   every test run.  Chosen once, kept stable — coverage growth belongs
   in new seeds appended here, not in reshuffling. *)

let smoke_corpus =
  [
    101; 102; 103; 104; 105; 106; 107; 108; 109; 110; 111; 112; 113;
    114; 115; 116; 117; 118; 119; 120; 121; 122; 123; 124; 125;
  ]
