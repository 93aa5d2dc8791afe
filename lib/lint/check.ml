(* The analyzer: assembles the pass registry and drives it — each file
   is parsed once by the compiler's parser (interfaces first, so any
   implementation can be checked against them), per-file passes run
   over each implementation as soon as it is parsed (all expression
   rules in one traversal), tree passes run once over the file list,
   and a final sort fixes the report order.  One domain: the compiler's
   lexer keeps global state. *)

let passes : Pass.t list =
  Determinism.passes @ Hotpath.passes @ Constants.passes @ Hygiene.passes

let find_pass id = List.find_opt (fun (p : Pass.t) -> p.Pass.id = id) passes

(* Doc comments are plain comments to the lint, so docstring handling is
   off: the parser then spends no time attaching [ocaml.doc]
   attributes. *)
let parse ~path parser src =
  Lexer.handle_docstrings := false;
  match Warnings.without_warnings (fun () -> parser (Lexing.from_string src))
  with
  | ast -> ast
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok { main; _ }) ->
          raise
            (Pass.Syntax_error
               {
                 path;
                 line = Pass.line main.loc;
                 message = Format.asprintf "%t" main.txt;
               })
      | Some `Already_displayed | None -> raise exn)

let parse_source ~interface ~path src =
  let path = Pass.normalise_path path in
  let ast = parse ~path Parse.implementation src in
  {
    Pass.sc_path = path;
    sc_ast = ast;
    sc_bindings = Pass.bindings ast;
    sc_interface = interface;
  }

let source_ctx = parse_source ~interface:(fun _ -> None)

(* A finding on an application sits on its function: the [=] of
   [x = 0.0], the [failwith] of [failwith ""]. *)
let anchor (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_apply (f, _) -> f.pexp_loc | _ -> e.pexp_loc

let run_source (sc : Pass.source_ctx) =
  let applicable = List.filter (fun p -> Pass.applies p sc.sc_path) passes in
  let expr_tests =
    List.filter_map
      (fun (p : Pass.t) ->
        match p.kind with Expr_pass test -> Some (p, test) | _ -> None)
      applicable
  in
  let out = ref [] in
  if expr_tests <> [] then
    Pass.iter_exprs sc (fun context e ->
        List.iter
          (fun ((p : Pass.t), test) ->
            match test e with
            | None -> ()
            | Some message ->
                out :=
                  Pass.finding ~rule:p.id ~path:sc.sc_path
                    ~line:(Pass.line (anchor e)) ~message ~context
                  :: !out)
          expr_tests);
  List.concat_map
    (fun (p : Pass.t) ->
      match p.kind with File_pass f -> f sc | Expr_pass _ | Tree_pass _ -> [])
    applicable
  @ !out

let compare_finding (a : Pass.finding) (b : Pass.finding) =
  match String.compare a.path b.path with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match String.compare a.rule b.rule with
          | 0 -> String.compare a.message b.message
          | c -> c)
      | c -> c)
  | c -> c

let run_string ~path src =
  List.sort compare_finding (run_source (source_ctx ~path src))

let run_files (files : (string * string) list) =
  let files =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (p, src) -> (Pass.normalise_path p, src)) files)
  in
  let interfaces = Hashtbl.create 64 in
  List.iter
    (fun (path, src) ->
      if Filename.check_suffix path ".mli" then
        Hashtbl.replace interfaces path (parse ~path Parse.interface src))
    files;
  (* each implementation's tree is dropped once its passes have run *)
  let file_findings =
    List.concat_map
      (fun (path, src) ->
        if Filename.check_suffix path ".ml" then
          run_source
            (parse_source ~interface:(Hashtbl.find_opt interfaces) ~path src)
        else [])
      files
  in
  let paths = List.map fst files in
  let tree_findings =
    List.concat_map
      (fun (p : Pass.t) ->
        match p.kind with
        | Tree_pass f ->
            List.filter
              (fun (fd : Pass.finding) -> Pass.applies p fd.path)
              (f paths)
        | File_pass _ | Expr_pass _ -> [])
      passes
  in
  List.sort compare_finding (file_findings @ tree_findings)

let rec walk dir =
  Array.fold_left
    (fun acc e ->
      if String.length e > 0 && (e.[0] = '.' || e.[0] = '_') then acc
      else
        let p = Filename.concat dir e in
        if Sys.is_directory p then walk p @ acc
        else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
        then p :: acc
        else acc)
    [] (Sys.readdir dir)

let run_tree ~roots =
  run_files
    (List.map
       (fun p -> (p, In_channel.with_open_bin p In_channel.input_all))
       (List.concat_map walk roots))
