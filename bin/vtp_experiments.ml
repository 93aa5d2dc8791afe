(* CLI: run the paper-reproduction experiment suite (E1..E16 + ablations).

   Examples:
     vtp_experiments                 # everything
     vtp_experiments e1 e5 e7        # a subset
     vtp_experiments --list          # what exists
     vtp_experiments --seed 7 e9     # different RNG seed
     vtp_experiments --jobs 8        # fan entries over 8 domains *)

open Cmdliner

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List available experiments and exit.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Root RNG seed.")

let csv =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned tables.")

let checked =
  Arg.(
    value & flag
    & info [ "checked" ]
        ~doc:
          "Run every scenario under the protocol-invariant checker; abort \
           with a diagnostic on the first violation.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Run every scenario with the flight recorder live and print each \
           entry's event count and canonical trace digest.")

let jobs =
  Vtp_cli.jobs
    ~doc:"Worker domains for the fan-out (default $(b,VTP_JOBS) if set, \
          else the recommended domain count).  Output is identical at \
          any value."

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")

let run list_only seed csv checked trace jobs ids =
  if list_only then begin
    List.iter
      (fun (e : Experiments.Runner.entry) ->
        Format.printf "%-4s %s@.     %s@." e.Experiments.Runner.id
          e.Experiments.Runner.title e.Experiments.Runner.claim)
      Experiments.Runner.all;
    `Ok ()
  end
  else begin
    let unknown =
      List.filter (fun id -> Experiments.Runner.find id = None) ids
    in
    match unknown with
    | _ :: _ ->
        `Error (false, "unknown experiment id(s): " ^ String.concat ", " unknown)
    | [] ->
        let ids = match ids with [] -> None | l -> Some l in
        let format = if csv then `Csv else `Table in
        (try
           Experiments.Runner.run_all ~seed ?ids ~format ~checked ~trace ?jobs
             ~out:Format.std_formatter ();
           `Ok ()
         with Analysis.Invariants.Violation v ->
           `Error
             ( false,
               Format.asprintf "%a" Analysis.Invariants.pp_violation v ))
  end

let cmd =
  let doc =
    "Regenerate the evaluation tables of 'Towards a Versatile Transport \
     Protocol' (CoNEXT'06)."
  in
  Cmd.v
    (Cmd.info "vtp_experiments" ~doc)
    Term.(
      ret (const run $ list_flag $ seed $ csv $ checked $ trace $ jobs $ ids))

let () = exit (Cmd.eval cmd)
