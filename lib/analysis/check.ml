(* The analyzer: assembles the pass registry and drives it — per-file
   passes fan out over Engine.Pool in submission order, tree passes run
   once over the collected file set, and the final sort makes the
   report identical at any worker count. *)

let passes : Pass.t list =
  Determinism.passes @ Hotpath.passes @ Constants.passes @ Hygiene.passes

let find_pass id = List.find_opt (fun (p : Pass.t) -> p.Pass.id = id) passes

let source_ctx ~path src =
  let tokens = Array.of_list (Lexer.tokenize src) in
  let items = Parser.parse tokens in
  {
    Pass.sc_path = Lexer.normalise_path path;
    sc_tokens = tokens;
    sc_items = items;
    sc_contexts = Parser.contexts items;
  }

let run_source (sc : Pass.source_ctx) =
  List.concat_map
    (fun (p : Pass.t) ->
      match p.Pass.kind with
      | Pass.File_pass f when Pass.applies p sc.Pass.sc_path -> f sc
      | Pass.File_pass _ | Pass.Tree_pass _ -> [])
    passes

let compare_finding (a : Pass.finding) (b : Pass.finding) =
  match String.compare a.Pass.path b.Pass.path with
  | 0 -> (
      match Int.compare a.Pass.line b.Pass.line with
      | 0 -> (
          match String.compare a.Pass.rule b.Pass.rule with
          | 0 -> String.compare a.Pass.message b.Pass.message
          | c -> c)
      | c -> c)
  | c -> c

let run_string ~path src =
  List.sort compare_finding (run_source (source_ctx ~path src))

let run_files ?jobs (files : (string * string) list) =
  let files =
    List.map (fun (p, src) -> (Lexer.normalise_path p, src)) files
  in
  let mls =
    Array.of_list
      (List.filter (fun (p, _) -> Filename.check_suffix p ".ml") files)
  in
  let file_findings =
    Engine.Pool.map ?jobs
      (fun (p, src) -> run_source (source_ctx ~path:p src))
      mls
    |> Array.to_list |> List.concat
  in
  let tc =
    {
      Pass.tc_files = List.map fst files;
      tc_read = (fun p -> List.assoc_opt p files);
    }
  in
  let tree_findings =
    List.concat_map
      (fun (p : Pass.t) ->
        match p.Pass.kind with
        | Pass.Tree_pass f ->
            List.filter
              (fun (fd : Pass.finding) -> Pass.applies p fd.Pass.path)
              (f tc)
        | Pass.File_pass _ -> [])
      passes
  in
  List.sort compare_finding (file_findings @ tree_findings)

let run_tree ?jobs ~roots () =
  let files = List.concat_map Lexer.walk roots in
  run_files ?jobs (List.map (fun p -> (p, Lexer.read_file p)) files)
