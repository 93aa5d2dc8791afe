(* Shared vocabulary of the analyzer: the finding record, a parsed file
   with its let-binding walk, the three pass shapes (per file, per
   expression, or once over the scanned file list), and the helpers
   more than one rule family needs. *)

type finding = {
  rule : string;
  path : string;
  line : int;
  message : string;
  context : string;  (** enclosing binding ("Mod.name") or rule anchor *)
}

exception Syntax_error of { path : string; line : int; message : string }

type binding = {
  name : string;
  line : int;
  attrs : string list;
  is_fun : bool;
  context : string;
  floating : string list;
  vb : Parsetree.value_binding;
}

type source_ctx = {
  sc_path : string;
  sc_ast : Parsetree.structure;
  sc_bindings : binding list;
  sc_interface : string -> Parsetree.signature option;
}

type kind =
  | File_pass of (source_ctx -> finding list)
  | Expr_pass of (Parsetree.expression -> string option)
  | Tree_pass of (string list -> finding list)

type t = {
  id : string;
  family : string;
  doc : string;
  rationale : string;
  bad : string;
  good : string;
  dirs : string list;  (** path substrings where the pass is active; [] = all *)
  allow : string list;  (** path substrings exempt from the pass *)
  kind : kind;
}

let normalise_path p =
  if String.starts_with ~prefix:"./" p && String.length p > 2 then
    String.sub p 2 (String.length p - 2)
  else p

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let applies p path =
  let path = normalise_path path in
  (p.dirs = [] || List.exists (fun d -> contains_sub ~sub:d path) p.dirs)
  && not (List.exists (fun a -> contains_sub ~sub:a path) p.allow)

(* ------------------------------------------------------------------ *)
(* The let-binding walk *)

let rec name_of (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var v -> v.txt
  | Ppat_constraint (p, _) -> name_of p
  | Ppat_any -> "_"
  | Ppat_construct ({ txt = Lident "()"; _ }, None) -> "()"
  | _ -> "(pattern)"

let rec is_fun (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_fun e
  | _ -> false

let rec struct_body (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure s -> Some s
  | Pmod_functor (_, me) | Pmod_constraint (me, _) -> struct_body me
  | _ -> None

let line (loc : Location.t) = loc.loc_start.pos_lnum

(* Each let-binding of the structure, and of every module whose body is
   a struct, goes to [on_binding]; every other item (a type, an open, a
   top-level expression, a functor application) goes to [on_other]. *)
let rec walk ~mods ~floating ~on_binding ~on_other items =
  let floating =
    floating
    @ List.filter_map
        (fun (i : Parsetree.structure_item) ->
          match i.pstr_desc with
          | Pstr_attribute a -> Some a.attr_name.txt
          | _ -> None)
        items
  in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let name = name_of vb.pvb_pat in
              on_binding
                {
                  name;
                  line = line vb.pvb_loc;
                  attrs =
                    List.map
                      (fun (a : Parsetree.attribute) -> a.attr_name.txt)
                      vb.pvb_attributes;
                  is_fun = is_fun vb.pvb_expr;
                  context = String.concat "." (mods @ [ name ]);
                  floating;
                  vb;
                })
            vbs
      | Pstr_module { pmb_name; pmb_expr; _ } -> (
          match struct_body pmb_expr with
          | Some s ->
              let m = Option.value pmb_name.txt ~default:"_" in
              walk ~mods:(mods @ [ m ]) ~floating ~on_binding ~on_other s
          | None -> on_other item)
      | _ -> on_other item)
    items

let bindings ast =
  let out = ref [] in
  walk ~mods:[] ~floating:[]
    ~on_binding:(fun b -> out := b :: !out)
    ~on_other:ignore ast;
  List.rev !out

let iterator f =
  {
    Ast_iterator.default_iterator with
    expr =
      (fun it e ->
        f e;
        Ast_iterator.default_iterator.expr it e);
  }

let iter_expr f e =
  let it = iterator f in
  it.expr it e

let iter_exprs sc f =
  let context = ref "" in
  let it = iterator (fun e -> f !context e) in
  walk ~mods:[] ~floating:[]
    ~on_binding:(fun b ->
      context := b.context;
      it.value_binding it b.vb)
    ~on_other:(fun item ->
      context := "";
      it.structure_item it item)
    sc.sc_ast

(* ------------------------------------------------------------------ *)
(* Expression helpers *)

let ident (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Longident.flatten txt
  | _ -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | cs -> cs

let written_cons (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "::"; loc }, Some _) when not loc.loc_ghost
    ->
      Some loc
  | _ -> None

let finding ~rule ~path ~line ~message ~context =
  { rule; path; line; message; context }

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] error: %s" f.path f.line f.rule f.message
