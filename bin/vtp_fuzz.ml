(* CLI: the deterministic scenario fuzzer.

   Examples:
     vtp_fuzz --seeds 200            # soak seeds 1..200
     vtp_fuzz --seeds 200 --jobs 8   # same soak, fanned over 8 domains
     vtp_fuzz --seeds 200 --shrink   # and minimise any failure found
     vtp_fuzz --replay 1337          # re-run one seed, full report
     vtp_fuzz --matrix --seeds 60    # 10 seeds per profile/mode cell
     vtp_fuzz --smoke                # the fixed 25-seed corpus (@fuzz-smoke)
     vtp_fuzz --smoke --digest       # one report digest per seed (@par-smoke)
     vtp_fuzz --band handover --seeds 25   # mobility band (@handover-smoke)

   Every run is a pure function of its seeds — whatever --jobs is: the
   per-seed executions fan out over an Engine.Pool but reporting is in
   seed order, so the same invocation prints the same bytes at --jobs 1
   and --jobs N.  Exit code 0 iff no scenario failed.  A flag the chosen
   mode ignores is a usage error (exit 124) naming it: --replay runs one
   seed and --smoke the fixed corpus, so neither takes --seeds or
   --base, and --matrix draws every cell from the std band, so it takes
   no --band.  The modes exclude one another the same way: --replay
   takes neither --smoke nor --matrix, and --smoke takes no --matrix. *)

open Cmdliner

let default_seeds = 50

let seeds =
  Arg.(
    value
    & opt (some' ~none:default_seeds int) None
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Number of scenarios to run (with $(b,--matrix): total across \
              the six cells); not with $(b,--smoke) or $(b,--replay).")

let default_base = 1

let base =
  Arg.(
    value
    & opt (some' ~none:default_base int) None
    & info [ "base" ] ~docv:"SEED"
        ~doc:"First seed of the sweep; not with $(b,--smoke) or \
              $(b,--replay).")

let replay =
  Arg.(
    value & opt (some int) None
    & info [ "replay" ] ~docv:"SEED"
        ~doc:"Re-run a single seed and print its full report.")

let shrink =
  Arg.(
    value & flag
    & info [ "shrink" ]
        ~doc:"Greedily minimise every failing scenario before reporting it.")

let matrix =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:"Sweep the six profile/reliability compositions instead of \
              free-sampling profiles; not with $(b,--smoke) or \
              $(b,--replay).")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"Run the fixed 25-seed corpus (what dune's @fuzz-smoke alias \
              executes); not with $(b,--replay).")

let digest =
  Arg.(
    value & flag
    & info [ "digest" ]
        ~doc:"Print one $(i,seed report-digest) line per scenario instead of \
              the campaign summary; dune's @par-smoke alias diffs this \
              output across --jobs values.")

let band =
  Arg.(
    value
    & opt
        (some' ~none:`Std
           (enum
              [
                ("std", `Std); ("lfn", `Lfn); ("handover", `Handover);
                ("trunk", `Trunk);
              ]))
        None
    & info [ "band" ] ~docv:"BAND"
        ~doc:"Generation band: $(b,std) (classic short paths), $(b,lfn) \
              (long-fat networks), $(b,handover) (single flow migrating \
              across a heterogeneous WiFi/cellular/satellite path triple) or \
              $(b,trunk) (10..1000 user micro-flows multiplexed over one \
              gTFRC connection); not with $(b,--matrix).")

let jobs =
  Vtp_cli.jobs
    ~doc:"Worker domains for the fan-out (default $(b,VTP_JOBS) if set, \
          else the recommended domain count)."

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Print a line per scenario as it runs.")

let print_found (f : Fuzz.Driver.found) =
  Format.printf "@.--- FAILURE ---@.%a@." Fuzz.Exec.pp_report f.Fuzz.Driver.report;
  (match f.Fuzz.Driver.shrunk with
  | None -> ()
  | Some o ->
      Format.printf
        "@.shrunk (%d simplification(s), %d execution(s)):@.%a@."
        o.Fuzz.Shrink.steps o.Fuzz.Shrink.executions Fuzz.Scenario.pp
        o.Fuzz.Shrink.shrunk);
  Format.printf "replay: vtp_fuzz --replay %d@."
    f.Fuzz.Driver.report.Fuzz.Exec.scenario.Fuzz.Scenario.seed

let progress_of ~digest ~verbose =
  if digest then
    Some
      (fun seed (r : Fuzz.Exec.report) ->
        Format.printf "%d %s@." seed (Fuzz.Driver.digest r))
  else if verbose then
    Some
      (fun seed (r : Fuzz.Exec.report) ->
        Format.printf "%s %s@."
          (if Fuzz.Exec.passed r then "pass" else "FAIL")
          (Fuzz.Scenario.summary r.Fuzz.Exec.scenario);
        ignore seed)
  else None

let summarise ~digest (s : Fuzz.Driver.soak) =
  if not digest then begin
    Format.printf
      "@.%d scenario(s), %d failing, %d benign handshake timeout(s)@."
      s.Fuzz.Driver.runs
      (List.length s.Fuzz.Driver.found)
      s.Fuzz.Driver.handshake_timeouts;
    List.iter print_found s.Fuzz.Driver.found
  end;
  if s.Fuzz.Driver.found = [] then 0 else 1

let fuzz seeds base band replay shrink matrix smoke digest jobs verbose =
  match replay with
  | Some seed ->
      let f =
        Fuzz.Driver.run_scenario ~shrink
          (Fuzz.Scenario.generate_in ~band ~seed)
      in
      if digest then
        Format.printf "%d %s@." seed (Fuzz.Driver.digest f.Fuzz.Driver.report)
      else begin
        Format.printf "%a@." Fuzz.Exec.pp_report f.Fuzz.Driver.report;
        match f.Fuzz.Driver.shrunk with
        | None -> ()
        | Some o ->
            Format.printf
              "@.shrunk (%d simplification(s), %d execution(s)):@.%a@."
              o.Fuzz.Shrink.steps o.Fuzz.Shrink.executions Fuzz.Scenario.pp
              o.Fuzz.Shrink.shrunk
      end;
      if Fuzz.Exec.passed f.Fuzz.Driver.report then 0 else 1
  | None ->
      let progress = progress_of ~digest ~verbose in
      if smoke then
        summarise ~digest
          (Fuzz.Driver.run_seeds ~band ~shrink ?progress ?jobs
             Fuzz.Driver.smoke_corpus)
      else if matrix then
        let per_cell =
          max 1 (seeds / List.length Fuzz.Driver.matrix_cells)
        in
        summarise ~digest
          (Fuzz.Driver.matrix ~base ~shrink ?progress ?jobs
             ~seeds_per_cell:per_cell ())
      else
        summarise ~digest
          (Fuzz.Driver.soak ~base ~band ~shrink ?progress ?jobs ~seeds ())

let check_ignored ~seeds ~base ~band ~replay ~smoke ~matrix =
  let fixed =
    match replay with
    | Some _ -> Some "--replay runs one seed"
    | None -> if smoke then Some "--smoke runs the fixed corpus" else None
  in
  match (fixed, seeds, base, band) with
  | Some why, _, _, _ when smoke && Option.is_some replay ->
      Error ("--smoke: " ^ why)
  | Some why, _, _, _ when matrix -> Error ("--matrix: " ^ why)
  | Some why, Some n, _, _ -> Error (Printf.sprintf "--seeds %d: %s" n why)
  | Some why, None, Some b, _ -> Error (Printf.sprintf "--base %d: %s" b why)
  | None, _, _, Some _ when matrix ->
      Error "--band: --matrix draws every cell from the std band"
  | _ -> Ok ()

let run seeds base band replay shrink matrix smoke digest jobs verbose =
  match check_ignored ~seeds ~base ~band ~replay ~smoke ~matrix with
  | Error msg -> `Error (true, msg)
  | Ok () ->
      let seeds = Option.value seeds ~default:default_seeds
      and base = Option.value base ~default:default_base
      and band = Option.value band ~default:`Std in
      if seeds < 1 then
        `Error (true, Printf.sprintf "--seeds %d is below 1" seeds)
      else
        `Ok
          (fuzz seeds base band replay shrink matrix smoke digest jobs verbose)

let cmd =
  let doc =
    "Deterministic scenario fuzzing of the versatile transport protocol."
  in
  Cmd.v
    (Cmd.info "vtp_fuzz" ~doc)
    Term.(
      ret
        (const run $ seeds $ base $ band $ replay $ shrink $ matrix $ smoke
        $ digest $ jobs $ verbose))

let () = exit (Cmd.eval' cmd)
