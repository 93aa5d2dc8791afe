(* The dead-export guard.  Every file is parsed with the compiler's
   parser, and every value path written in an implementation is
   resolved through the module names in scope where it is written, by
   name alone (there is no type-checking).  Module identities are
   keys: ["Qtp.Connection"] for lib/core/connection.ml{,i} (the
   library's name is read from lib/core/dune), ["test/Scoreboard_lists"]
   for a file outside lib/, and the enclosing key dotted with the name
   for a module defined inside a file.

   The tree is walked twice: the first walk learns every [module X = P]
   alias and every [include] (a path may run through another file's
   alias), the second counts references.  A reference written in a
   module's own .ml does not count for it.

   Where a name is ambiguous, resolution errs towards a reference: a
   let-binding that shadows an opened value still counts as the opened
   value, so the guard can miss a dead export.  A path through a
   functor's result or an unpacked first-class module resolves to
   nothing, so a value reached only that way is named as dead. *)

type scope = Module of string * string | Open of string

type env = {
  own : string;  (** key of the file being walked *)
  self : string;  (** key of the structure being walked *)
  siblings : string;  (** prefix of the keys of the files beside it *)
  scopes : scope list;  (** innermost first *)
}

type t = {
  known : (string, unit) Hashtbl.t;  (** keys that name a module *)
  aliases : (string, string) Hashtbl.t;  (** [module X = P], by X's key *)
  includes : (string, string list) Hashtbl.t;
  exports : (string, string list) Hashtbl.t;  (** lib/ interfaces only *)
  used : (string * string, unit) Hashtbl.t;
}

let find tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]

let step t k m =
  let k' = k ^ "." ^ m in
  Option.value (Hashtbl.find_opt t.aliases k') ~default:k'

let names_module t k m =
  let k' = k ^ "." ^ m in
  Hashtbl.mem t.aliases k' || Hashtbl.mem t.known k'

(* OCaml's order: the innermost module binding or open that names [m],
   then the files beside this one, then the libraries. *)
let head t env m =
  let rec go = function
    | Module (n, k) :: _ when String.equal n m -> k
    | Open o :: _ when names_module t o m -> step t o m
    | _ :: rest -> go rest
    | [] ->
        let sibling = env.siblings ^ m in
        if Hashtbl.mem t.known sibling then sibling
        else if Hashtbl.mem t.known m then m
        else "?" ^ m
  in
  go env.scopes

let rec resolve t env : Longident.t -> string = function
  | Lident m -> head t env m
  | Ldot (p, m) -> step t (resolve t env p) m
  | Lapply (f, _) -> resolve t env f ^ "()"

let rec provides t k x =
  List.mem x (find t.exports k)
  || List.exists (fun i -> provides t i x) (find t.includes k)

let rec mark t env k x =
  if not (String.equal k env.own) then begin
    if List.mem x (find t.exports k) then Hashtbl.replace t.used (k, x) ();
    List.iter (fun i -> mark t env i x) (find t.includes k)
  end

(* A module passed whole to a functor, or packed, uses all it exports. *)
let rec whole t env k =
  if not (String.equal k env.own) then begin
    List.iter (fun x -> Hashtbl.replace t.used (k, x) ()) (find t.exports k);
    List.iter (whole t env) (find t.includes k)
  end

let value t env : Longident.t -> unit = function
  | Lident x -> (
      match
        List.find_opt
          (function Open o -> provides t o x | Module _ -> false)
          env.scopes
      with
      | Some (Open o) -> mark t env o x
      | _ -> ())
  | Ldot (p, x) -> mark t env (resolve t env p) x
  | Lapply _ -> ()

let with_scope env s = { env with scopes = s :: env.scopes }

(* The key a module expression names, walking what it contains; a
   structure is named [key]. *)
let rec module_expr t env ~key (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (resolve t env txt)
  | Pmod_structure items ->
      Hashtbl.replace t.known key ();
      structure t { env with self = key } items;
      Some key
  | Pmod_constraint (me, _) -> module_expr t env ~key me
  | Pmod_functor (Named ({ txt = Some p; _ }, _), body) ->
      ignore (module_expr t (with_scope env (Module (p, "?" ^ p))) ~key body);
      None
  | Pmod_functor (_, body) ->
      ignore (module_expr t env ~key body);
      None
  | Pmod_apply (f, arg) ->
      ignore (module_expr t env ~key f);
      Option.iter (whole t env) (module_expr t env ~key:(key ^ "()") arg);
      None
  | Pmod_unpack e ->
      expression t env e;
      None
  | _ -> None

and bind_module t env (mb : Parsetree.module_binding) =
  match mb.pmb_name.txt with
  | None ->
      ignore (module_expr t env ~key:(env.self ^ "._") mb.pmb_expr);
      env
  | Some name -> (
      let key = env.self ^ "." ^ name in
      match module_expr t env ~key mb.pmb_expr with
      | Some k ->
          if not (String.equal k key) then Hashtbl.replace t.aliases key k;
          with_scope env (Module (name, k))
      | None -> with_scope env (Module (name, key)))

and structure t env items = ignore (List.fold_left (item t) env items)

and item t env (it : Parsetree.structure_item) =
  match it.pstr_desc with
  | Pstr_open { popen_expr; _ } -> (
      match module_expr t env ~key:(env.self ^ ".open") popen_expr with
      | Some k -> with_scope env (Open k)
      | None -> env)
  | Pstr_include { pincl_mod; _ } -> (
      match module_expr t env ~key:(env.self ^ ".include") pincl_mod with
      | Some k ->
          let is = find t.includes env.self in
          if not (List.mem k is) then
            Hashtbl.replace t.includes env.self (k :: is);
          with_scope env (Open k)
      | None -> env)
  | Pstr_module mb -> bind_module t env mb
  | Pstr_recmodule mbs -> List.fold_left (bind_module t) env mbs
  | Pstr_modtype _ -> env
  | _ ->
      let it' = iterator t env in
      it'.Ast_iterator.structure_item it' it;
      env

and expression t env e =
  let it = iterator t env in
  it.Ast_iterator.expr it e

and iterator t env =
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> value t env txt
    | Pexp_open ({ popen_expr; _ }, body) -> (
        match module_expr t env ~key:(env.self ^ ".open") popen_expr with
        | Some k -> expression t (with_scope env (Open k)) body
        | None -> self.expr self body)
    | Pexp_letmodule ({ txt; _ }, me, body) ->
        let name = Option.value txt ~default:"_" in
        let key = env.self ^ "." ^ name in
        let k = Option.value (module_expr t env ~key me) ~default:key in
        expression t (with_scope env (Module (name, k))) body
    | Pexp_pack me ->
        Option.iter (whole t env)
          (module_expr t env ~key:(env.self ^ ".pack") me)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  { Ast_iterator.default_iterator with expr }

(* ------------------------------------------------------------------ *)

let parse parser ~path src =
  Lexer.handle_docstrings := false;
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  Warnings.without_warnings (fun () -> parser lexbuf)

let module_name path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The library a lib/<dir>/dune declares, as its modules are qualified:
   the word after [name], outside [;] comments, capitalised. *)
let library_name dune =
  let words =
    String.split_on_char '\n' dune
    |> List.filter (fun l ->
           not (String.starts_with ~prefix:";" (String.trim l)))
    |> String.concat " "
    |> String.map (function '(' | ')' | '\t' -> ' ' | c -> c)
    |> String.split_on_char ' '
  in
  let rec find = function
    | "name" :: rest -> (
        match List.filter (fun w -> w <> "") rest with
        | n :: _ -> Some (String.capitalize_ascii n)
        | [] -> None)
    | _ :: rest -> find rest
    | [] -> None
  in
  find words

let lib_dir path =
  match String.split_on_char '/' path with
  | "lib" :: d :: _ :: _ -> Some d
  | _ -> None

let lib_dune path =
  match String.split_on_char '/' path with
  | [ "lib"; d; "dune" ] -> Some d
  | _ -> None

let dead_exports files =
  let libraries = Hashtbl.create 16 in
  List.iter
    (fun (path, src) ->
      Option.iter
        (fun d -> Option.iter (Hashtbl.replace libraries d) (library_name src))
        (lib_dune path))
    files;
  (* (key, siblings prefix) of a source file *)
  let place path =
    match lib_dir path with
    | Some d when Hashtbl.mem libraries d ->
        let lib = Hashtbl.find libraries d in
        (lib ^ "." ^ module_name path, lib ^ ".")
    | _ ->
        let dir = Filename.dirname path ^ "/" in
        (dir ^ module_name path, dir)
  in
  let t =
    {
      known = Hashtbl.create 256;
      aliases = Hashtbl.create 256;
      includes = Hashtbl.create 16;
      exports = Hashtbl.create 256;
      used = Hashtbl.create 1024;
    }
  in
  Hashtbl.iter (fun _ lib -> Hashtbl.replace t.known lib ()) libraries;
  let interfaces = ref [] and implementations = ref [] in
  List.iter
    (fun (path, src) ->
      if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
      then Hashtbl.replace t.known (fst (place path)) ();
      if Filename.check_suffix path ".mli" then begin
        let sg = parse Parse.interface ~path src in
        if Option.is_some (lib_dir path) then begin
          let vals =
            List.filter_map
              (fun (s : Parsetree.signature_item) ->
                match s.psig_desc with
                | Psig_value vd -> Some vd.pval_name.txt
                | _ -> None)
              sg
          in
          Hashtbl.replace t.exports (fst (place path)) vals;
          interfaces := (path, vals) :: !interfaces
        end
      end
      else if Filename.check_suffix path ".ml" then
        implementations := (place path, parse Parse.implementation ~path src)
                           :: !implementations)
    files;
  let walk () =
    List.iter
      (fun ((key, siblings), ast) ->
        structure t { own = key; self = key; siblings; scopes = [] } ast)
      !implementations
  in
  walk ();
  Hashtbl.reset t.used;
  walk ();
  List.concat_map
    (fun (path, vals) ->
      let key = fst (place path) in
      List.filter_map
        (fun x ->
          if Hashtbl.mem t.used (key, x) then None
          else Some (path ^ ": " ^ x))
        vals)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !interfaces)

(* ------------------------------------------------------------------ *)
(* Every exported record field is read *)

(* [(type.label, label)] for each record label an interface declares,
   inline records of constructors included, in declaration order. *)
let declared_labels sg =
  let acc = ref [] and ty = ref "" in
  let type_declaration self (td : Parsetree.type_declaration) =
    ty := td.ptype_name.txt;
    Ast_iterator.default_iterator.type_declaration self td
  in
  let label_declaration _ (ld : Parsetree.label_declaration) =
    acc := (!ty ^ "." ^ ld.pld_name.txt, ld.pld_name.txt) :: !acc
  in
  let it =
    { Ast_iterator.default_iterator with type_declaration; label_declaration }
  in
  it.signature it sg;
  List.rev !acc

(* Every label an implementation reads: a field access, or a record
   pattern that binds or tests the field ([{ f = _ }] does neither).
   Writing a field, building a record and [{ r with f = ... }] read
   nothing. *)
let read_labels reads ast =
  let read (lid : Longident.t Location.loc) =
    Hashtbl.replace reads (Longident.last lid.txt) ()
  in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with Pexp_field (_, lid) -> read lid | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let pat self (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_record (fields, _) ->
        List.iter
          (fun (lid, (q : Parsetree.pattern)) ->
            match q.ppat_desc with Ppat_any -> () | _ -> read lid)
          fields
    | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let it = { Ast_iterator.default_iterator with expr; pat } in
  it.structure it ast

let unread_fields files =
  let reads = Hashtbl.create 1024 in
  let declared =
    List.filter_map
      (fun (path, src) ->
        if Filename.check_suffix path ".ml" then begin
          read_labels reads (parse Parse.implementation ~path src);
          None
        end
        else if
          Filename.check_suffix path ".mli" && Option.is_some (lib_dir path)
        then Some (path, declared_labels (parse Parse.interface ~path src))
        else None)
      files
  in
  List.concat_map
    (fun (path, labels) ->
      List.filter_map
        (fun (shown, label) ->
          if Hashtbl.mem reads label then None else Some (path ^ ": " ^ shown))
        labels)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) declared)

let rec files_under skip dir =
  Array.fold_left
    (fun acc e ->
      let p = Filename.concat dir e in
      if String.length e > 0 && (e.[0] = '.' || e.[0] = '_') then acc
      else if List.mem p skip then acc
      else if Sys.is_directory p then files_under skip p @ acc
      else if
        Filename.check_suffix e ".ml"
        || Filename.check_suffix e ".mli"
        || Option.is_some (lib_dune p)
      then p :: acc
      else acc)
    [] (Sys.readdir dir)

let read_tree ~roots ~skip =
  List.map
    (fun p -> (p, In_channel.with_open_bin p In_channel.input_all))
    (List.concat_map (files_under skip) roots)
