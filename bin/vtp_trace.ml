(* CLI: the flight-recorder trace tool.

   Replays golden-corpus entries (or any fuzz seed) with the flight
   recorder live and serialises the result: canonical text or its
   digest.  Also diffs two canonical traces and regenerates /
   checks the committed corpus under test/golden/.

   Examples:
     vtp_trace --list
     vtp_trace --run light_headline --digest
     vtp_trace --run af_headline --export af.trace
     vtp_trace --seed 123
     vtp_trace --diff a.trace b.trace
     vtp_trace --regen test/golden
     vtp_trace --check test/golden
     vtp_trace --check test/golden --jobs 8   # parallel replay, same output *)

open Cmdliner

(* A path that cannot be read or written is a usage error naming its
   flag (exit 124), not an uncaught [Sys_error]; [run] turns it into
   cmdliner's [`Error]. *)
exception Bad_path of string

let read_file ~flag path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> raise (Bad_path (flag ^ ": " ^ msg))

let write_file ~flag path s =
  try
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
  with Sys_error msg -> raise (Bad_path (flag ^ ": " ^ msg))

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List the golden corpus and exit.")

let run_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "run" ] ~docv:"NAME" ~doc:"Replay this golden-corpus entry.")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Replay the fuzz scenario generated from this seed.")

let export =
  Arg.(
    value
    & opt (some string) None
    & info [ "export" ] ~docv:"FILE" ~doc:"Write the canonical trace to FILE.")

let digest =
  Arg.(
    value & flag
    & info [ "digest" ]
        ~doc:"Print only the canonical trace digest (MD5 hex).")

let diff =
  Arg.(
    value
    & opt (some (pair ~sep:',' string string)) None
    & info [ "diff" ] ~docv:"A,B"
        ~doc:
          "Compare two canonical trace files and report the first \
           divergent line (exit 1 on mismatch).")

let diff_pos =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE" ~doc:"Files for $(b,--diff) (alternative to A,B).")

let regen =
  Arg.(
    value
    & opt (some string) None
    & info [ "regen" ] ~docv:"DIR"
        ~doc:"Regenerate every corpus trace into DIR/<name>.trace.")

let check =
  Arg.(
    value
    & opt (some string) None
    & info [ "check" ] ~docv:"DIR"
        ~doc:
          "Replay every corpus entry and compare against DIR/<name>.trace \
           (exit 1 on any mismatch).")

let jobs =
  Vtp_cli.jobs
    ~doc:"Worker domains for $(b,--regen)/$(b,--check) replay (default \
          $(b,VTP_JOBS) if set, else the recommended domain count).  \
          Output is identical at any value."

let do_diff a b =
  let ta = read_file ~flag:"--diff" a and tb = read_file ~flag:"--diff" b in
  match Trace.Export.diff ta tb with
  | None ->
      Format.printf "traces identical (%s)@."
        (Trace.Export.digest_of_string ta);
      `Ok ()
  | Some d ->
      Format.printf "%a" Trace.Export.pp_divergence d;
      exit 1

let warn_failed (e : Fuzz.Golden.entry) report =
  if not (Fuzz.Exec.passed report) then
    Format.eprintf "warning: %s did not pass its oracles:@.%a@." e.name
      Fuzz.Exec.pp_report report

let capture_entry (e : Fuzz.Golden.entry) =
  let report, recorder = Fuzz.Golden.capture e in
  warn_failed e report;
  recorder

(* Replay the whole corpus on [jobs] domains; entries come back — and
   the oracle warnings fire — in corpus order, so --regen/--check output
   is identical at any --jobs. *)
let capture_corpus ~jobs =
  let entries = Array.of_list Fuzz.Golden.corpus in
  let captured = Engine.Pool.map ?jobs Fuzz.Golden.capture entries in
  Array.map2
    (fun e (report, recorder) ->
      warn_failed e report;
      (e, recorder))
    entries captured

let do_regen ~jobs dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Bad_path ("--regen: no such directory: " ^ dir));
  Array.iter
    (fun ((e : Fuzz.Golden.entry), recorder) ->
      let text = Trace.Export.canonical recorder in
      let path = Filename.concat dir (e.name ^ ".trace") in
      write_file ~flag:"--regen" path text;
      Format.printf "%-18s %s  (%d events)@." e.name
        (Trace.Export.digest_of_string text)
        (Trace.Recorder.events recorder))
    (capture_corpus ~jobs);
  `Ok ()

let do_check ~jobs dir =
  let bad = ref 0 in
  Array.iter
    (fun ((e : Fuzz.Golden.entry), recorder) ->
      let path = Filename.concat dir (e.name ^ ".trace") in
      if not (Sys.file_exists path) then begin
        incr bad;
        Format.printf "%-18s MISSING (%s)@." e.name path
      end
      else begin
        let want = read_file ~flag:"--check" path in
        let got = Trace.Export.canonical recorder in
        match Trace.Export.diff want got with
        | None -> Format.printf "%-18s ok@." e.name
        | Some d ->
            incr bad;
            Format.printf "%-18s MISMATCH@.%a" e.name
              Trace.Export.pp_divergence d
      end)
    (capture_corpus ~jobs);
  if !bad > 0 then exit 1;
  `Ok ()

let run list_only run_name seed export digest diff diff_pos regen check
    jobs =
  if list_only then begin
    List.iter
      (fun (e : Fuzz.Golden.entry) ->
        Format.printf "%-18s %s@." e.Fuzz.Golden.name e.Fuzz.Golden.descr)
      Fuzz.Golden.corpus;
    `Ok ()
  end
  else
    try
      match (diff, diff_pos, regen, check) with
      | Some (a, b), _, _, _ -> do_diff a b
      | None, [ a; b ], _, _ -> do_diff a b
      | None, _, Some dir, _ -> do_regen ~jobs dir
      | None, _, None, Some dir -> do_check ~jobs dir
      | None, _, None, None -> (
          let entry =
            match (run_name, seed) with
            | Some name, _ -> (
                match Fuzz.Golden.find name with
                | Some e -> Ok e
                | None ->
                    Error
                      ( false,
                        Printf.sprintf
                          "--run: no corpus entry named %S (see --list)" name
                      ))
            | None, Some seed ->
                Ok
                  {
                    Fuzz.Golden.name = Printf.sprintf "seed_%d" seed;
                    descr = "generated scenario";
                    scenario = Fuzz.Scenario.generate ~seed;
                  }
            | None, None ->
                Error
                  ( true,
                    "nothing to do: pass --run NAME or --seed N (or --list, \
                     --diff, --regen, --check)" )
          in
          match entry with
          | Error e -> `Error e
          | Ok e ->
              let recorder = capture_entry e in
              let text = Trace.Export.canonical recorder in
              (match export with
              | Some path -> write_file ~flag:"--export" path text
              | None -> ());
              if digest then
                Format.printf "%s@." (Trace.Export.digest_of_string text)
              else if export = None then print_string text;
              `Ok ())
    with Bad_path msg -> `Error (false, msg)

let cmd =
  let doc = "Flight-recorder traces: replay, export, digest, diff, corpus." in
  Cmd.v
    (Cmd.info "vtp_trace" ~doc)
    Term.(
      ret
        (const run $ list_flag $ run_name $ seed $ export $ digest
       $ diff $ diff_pos $ regen $ check $ jobs))

let () = exit (Cmd.eval cmd)
