(* CLI: the source analyzer (Lint.Check) over the protocol sources.

   Examples:
     vtp_lint lib bin                       # scan (the default roots)
     vtp_lint lib bin bench                 # what `dune build @lint` runs
     vtp_lint --rule hot-closure lib        # one rule only
     vtp_lint --explain hashtbl-order       # rationale + offender/fix
     vtp_lint --list-rules

   Exit codes: 0 no finding, 1 at least one finding, 2 an unknown rule
   id / a root that is missing or not a directory / a file the OCaml
   parser rejects or that cannot be read (an option cmdliner cannot
   parse exits 124). *)

open Cmdliner

let list_rules =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule table and exit.")

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

(* Check.run_tree returns the findings sorted by (path, line, rule,
   message), so the report is a function of the tree alone. *)
let scan ~rule_filter roots =
  let findings =
    List.filter
      (fun (f : Lint.Pass.finding) ->
        rule_filter = [] || List.mem f.Lint.Pass.rule rule_filter)
      (Lint.Check.run_tree ~roots)
  in
  List.iter (Format.printf "%a@." Lint.Pass.pp_finding) findings;
  Format.printf "vtp_lint: %d finding(s)@." (List.length findings);
  if findings = [] then 0 else 1

let bad_root r =
  if not (Sys.file_exists r) then Some ("no such directory: " ^ r)
  else if not (Sys.is_directory r) then Some ("not a directory: " ^ r)
  else None

let run list_only rule_filter explain roots =
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
                match scan ~rule_filter roots with
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
    Term.(const run $ list_rules $ rule_filter $ explain $ roots)

let () = exit (Cmd.eval' cmd)
