(* CLI: the source analyzer (Analysis.Check) over the protocol sources.

   Examples:
     vtp_lint lib bin                       # scan (the default roots)
     vtp_lint --baseline analysis/BASELINE.json lib bin bench
     vtp_lint --json report.sarif lib       # SARIF-style JSON report
     vtp_lint --update-baseline --baseline analysis/BASELINE.json lib bin
     vtp_lint --rule hot-closure lib        # one rule only
     vtp_lint --explain hashtbl-order       # rationale + offender/fix
     vtp_lint --list-rules

   Exit codes: 0 clean (no new gating findings), 1 new findings,
   2 usage error / unknown rule id / missing directory / malformed
   baseline / unwritable --json report. *)

open Cmdliner

let list_rules =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule table and exit.")

let jobs =
  Vtp_cli.jobs
    ~doc:"Worker domains for the per-file scan (default $(b,VTP_JOBS) \
          if set, else the recommended domain count).  Output is \
          identical at any value."

let json_out =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write a SARIF-style JSON report to $(docv) ($(b,-) for \
              stdout, suppressing the text report).  An unwritable \
              $(docv) exits 2.")

let baseline_file =
  Arg.(
    value & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Suppress (but keep tracking) the findings recorded in \
              $(docv); only new findings gate.  A missing or malformed \
              baseline exits 2.")

let update_baseline =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:"Rewrite the $(b,--baseline) file from the current scan and \
              exit 0.")

let rule_filter =
  Arg.(
    value & opt_all string []
    & info [ "rule" ] ~docv:"ID"
        ~doc:"Restrict the scan to this rule id (repeatable).  An id \
              $(b,--list-rules) does not show exits 2.")

let explain =
  Arg.(
    value & opt (some string) None
    & info [ "explain" ] ~docv:"ID"
        ~doc:"Print the rule's rationale and an offender/fix example \
              pair, then exit.")

let roots =
  Arg.(
    value
    & pos_all string [ "lib"; "bin" ]
    & info [] ~docv:"DIR" ~doc:"Directories to scan (default: lib bin).")

(* ------------------------------------------------------------------ *)

let print_rule_line (p : Analysis.Pass.t) =
  Format.printf "%-18s %-8s %s: %s@." p.Analysis.Pass.id "error"
    p.Analysis.Pass.family p.Analysis.Pass.doc;
  (match p.Analysis.Pass.dirs with
  | [] -> ()
  | dirs -> Format.printf "%-18s   scope: %s@." "" (String.concat " " dirs));
  match p.Analysis.Pass.allow with
  | [] -> ()
  | allow -> Format.printf "%-18s   allow: %s@." "" (String.concat " " allow)

let do_list_rules () =
  List.iter print_rule_line Analysis.Check.passes;
  0

let unknown_rule rid =
  Format.eprintf "vtp_lint: unknown rule %s (try --list-rules)@." rid;
  2

let do_explain rid =
  match Analysis.Check.find_pass rid with
  | Some p ->
      Format.printf "%s — %s: %s@.@.%s@.@.Offender:@.  %s@.@.Fix:@.  %s@."
        p.Analysis.Pass.id p.Analysis.Pass.family p.Analysis.Pass.doc
        p.Analysis.Pass.rationale p.Analysis.Pass.bad p.Analysis.Pass.good;
      0
  | None -> unknown_rule rid

let rule_meta () =
  List.map
    (fun (p : Analysis.Pass.t) -> (p.Analysis.Pass.id, p.Analysis.Pass.doc))
    Analysis.Check.passes

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let report ~json_out classified =
  let json_to_stdout = match json_out with Some "-" -> true | _ -> false in
  let write_json () =
    match json_out with
    | None -> ()
    | Some dest ->
        let doc = Analysis.Report.sarif ~rules:(rule_meta ()) classified in
        let text = Stats.Json.to_string doc ^ "\n" in
        if json_to_stdout then print_string text else write_file dest text
  in
  match write_json () with
  | exception Sys_error msg ->
      Format.eprintf "vtp_lint: cannot write --json report: %s@." msg;
      2
  | () ->
      let new_gating = List.filter snd classified in
      if not json_to_stdout then begin
        List.iter (fun c -> Format.printf "%a@." Analysis.Report.pp_entry c)
          classified;
        Format.printf "vtp_lint: %d finding(s), %d baselined, %d gating@."
          (List.length classified)
          (List.length classified - List.length new_gating)
          (List.length new_gating)
      end;
      if new_gating = [] then 0 else 1

let scan ~jobs ~json_out ~baseline_file ~update_baseline ~rule_filter roots =
  (* Check.run_tree sorts by (path, line, rule, message), the order
     Baseline.classify needs. *)
  let entries =
    Analysis.Report.of_check (Analysis.Check.run_tree ?jobs ~roots ())
  in
  let entries =
    match rule_filter with
    | [] -> entries
    | rs ->
        List.filter
          (fun (e : Analysis.Report.entry) ->
            List.mem e.Analysis.Report.rule rs)
          entries
  in
  if update_baseline then begin
    let path = Option.value baseline_file ~default:"analysis/BASELINE.json" in
    Analysis.Baseline.save path entries;
    Format.printf "vtp_lint: baseline updated: %d finding(s) -> %s@."
      (List.length entries) path;
    0
  end
  else
    match baseline_file with
    | None -> report ~json_out (List.map (fun e -> (e, true)) entries)
    | Some p -> (
        match Analysis.Baseline.load p with
        | bl -> report ~json_out (Analysis.Baseline.classify bl entries)
        | exception Analysis.Baseline.Malformed m ->
            Format.eprintf "vtp_lint: malformed baseline %s: %s@." p m;
            2)

let run list_only jobs json_out baseline_file update_baseline rule_filter
    explain roots =
  match explain with
  | Some rid -> do_explain rid
  | None -> (
      if list_only then do_list_rules ()
      else
        match
          List.find_opt
            (fun rid -> Option.is_none (Analysis.Check.find_pass rid))
            rule_filter
        with
        | Some rid -> unknown_rule rid
        | None -> (
            match List.filter (fun r -> not (Sys.file_exists r)) roots with
            | d :: _ ->
                Format.eprintf "vtp_lint: no such directory: %s@." d;
                2
            | [] ->
                scan ~jobs ~json_out ~baseline_file ~update_baseline
                  ~rule_filter roots))

let cmd =
  let doc =
    "Protocol-source lint and structural analysis: determinism, hot-path \
     allocation, protocol constants, API hygiene."
  in
  Cmd.v
    (Cmd.info "vtp_lint" ~doc)
    Term.(
      const run $ list_rules $ jobs $ json_out
      $ baseline_file $ update_baseline $ rule_filter $ explain $ roots)

let () = exit (Cmd.eval' cmd)
