(* CLI: the source analyzer (Lint.Check) over the protocol sources.

   Examples:
     vtp_lint lib bin                       # scan (the default roots)
     vtp_lint --baseline analysis/BASELINE.json lib bin bench
     vtp_lint --json report.sarif lib       # SARIF-style JSON report
     vtp_lint --update-baseline --baseline analysis/BASELINE.json lib bin
     vtp_lint --rule hot-closure lib        # one rule only
     vtp_lint --explain hashtbl-order       # rationale + offender/fix
     vtp_lint --list-rules

   Exit codes: 0 clean (no new gating findings), 1 new findings,
   2 usage error / unknown rule id / a root that is missing or not a
   directory / a file the OCaml parser rejects or that cannot be read /
   malformed baseline / unwritable --json report or baseline. *)

open Cmdliner

let list_rules =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule table and exit.")

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
              exit 0.  An unwritable file exits 2.")

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
    & info [] ~docv:"DIR"
        ~doc:"Directories to scan (default: lib bin).  A file that does \
              not parse exits 2, naming its path and line.")

(* ------------------------------------------------------------------ *)

let print_rule_line (p : Lint.Pass.t) =
  Format.printf "%-18s %-8s %s: %s@." p.Lint.Pass.id "error"
    p.Lint.Pass.family p.Lint.Pass.doc;
  (match p.Lint.Pass.dirs with
  | [] -> ()
  | dirs -> Format.printf "%-18s   scope: %s@." "" (String.concat " " dirs));
  match p.Lint.Pass.allow with
  | [] -> ()
  | allow -> Format.printf "%-18s   allow: %s@." "" (String.concat " " allow)

let do_list_rules () =
  List.iter print_rule_line Lint.Check.passes;
  0

let unknown_rule rid =
  Format.eprintf "vtp_lint: unknown rule %s (try --list-rules)@." rid;
  2

let do_explain rid =
  match Lint.Check.find_pass rid with
  | Some p ->
      Format.printf "%s — %s: %s@.@.%s@.@.Offender:@.  %s@.@.Fix:@.  %s@."
        p.Lint.Pass.id p.Lint.Pass.family p.Lint.Pass.doc
        p.Lint.Pass.rationale p.Lint.Pass.bad p.Lint.Pass.good;
      0
  | None -> unknown_rule rid

let rule_meta () =
  List.map
    (fun (p : Lint.Pass.t) -> (p.Lint.Pass.id, p.Lint.Pass.doc))
    Lint.Check.passes

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
        let doc = Lint.Report.sarif ~rules:(rule_meta ()) classified in
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
        List.iter (fun c -> Format.printf "%a@." Lint.Report.pp_entry c)
          classified;
        Format.printf "vtp_lint: %d finding(s), %d baselined, %d gating@."
          (List.length classified)
          (List.length classified - List.length new_gating)
          (List.length new_gating)
      end;
      if new_gating = [] then 0 else 1

let scan ~json_out ~baseline_file ~update_baseline ~rule_filter roots =
  (* Check.run_tree sorts by (path, line, rule, message), the order
     Baseline.classify needs. *)
  let entries = Lint.Report.of_check (Lint.Check.run_tree ~roots) in
  let entries =
    match rule_filter with
    | [] -> entries
    | rs ->
        List.filter
          (fun (e : Lint.Report.entry) -> List.mem e.Lint.Report.rule rs)
          entries
  in
  if update_baseline then begin
    let path = Option.value baseline_file ~default:"analysis/BASELINE.json" in
    match Lint.Baseline.save path entries with
    | exception Sys_error msg ->
        Format.eprintf "vtp_lint: cannot write baseline: %s@." msg;
        2
    | () ->
        Format.printf "vtp_lint: baseline updated: %d finding(s) -> %s@."
          (List.length entries) path;
        0
  end
  else
    match baseline_file with
    | None -> report ~json_out (List.map (fun e -> (e, true)) entries)
    | Some p -> (
        match Lint.Baseline.load p with
        | bl -> report ~json_out (Lint.Baseline.classify bl entries)
        | exception Lint.Baseline.Malformed m ->
            Format.eprintf "vtp_lint: malformed baseline %s: %s@." p m;
            2)

let bad_root r =
  if not (Sys.file_exists r) then Some ("no such directory: " ^ r)
  else if not (Sys.is_directory r) then Some ("not a directory: " ^ r)
  else None

let run list_only json_out baseline_file update_baseline rule_filter explain
    roots =
  match explain with
  | Some rid -> do_explain rid
  | None -> (
      if list_only then do_list_rules ()
      else
        match
          List.find_opt
            (fun rid -> Option.is_none (Lint.Check.find_pass rid))
            rule_filter
        with
        | Some rid -> unknown_rule rid
        | None -> (
            match List.find_map bad_root roots with
            | Some msg ->
                Format.eprintf "vtp_lint: %s@." msg;
                2
            | None -> (
                match
                  scan ~json_out ~baseline_file ~update_baseline ~rule_filter
                    roots
                with
                | code -> code
                | exception Lint.Pass.Syntax_error { path; line; message } ->
                    Format.eprintf "vtp_lint: %s:%d: %s@." path line message;
                    2
                | exception Sys_error msg ->
                    Format.eprintf "vtp_lint: %s@." msg;
                    2)))

let cmd =
  let doc =
    "Protocol-source lint and structural analysis: determinism, hot-path \
     allocation, protocol constants, API hygiene."
  in
  Cmd.v
    (Cmd.info "vtp_lint" ~doc)
    Term.(
      const run $ list_rules $ json_out
      $ baseline_file $ update_baseline $ rule_filter $ explain $ roots)

let () = exit (Cmd.eval' cmd)
