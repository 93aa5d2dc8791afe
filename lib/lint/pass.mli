(** Shared vocabulary of the analyzer ({!Check}): findings, a parsed
    file with its let-binding walk, the three pass shapes, and the
    helpers more than one rule family uses. *)

type finding = {
  rule : string;
  path : string;
  line : int;
  message : string;
  context : string;  (** enclosing binding ("Mod.name") or rule anchor *)
}

exception Syntax_error of { path : string; line : int; message : string }
(** A file the OCaml parser rejects, with the parser's message. *)

type binding = {
  name : string;  (** the bound variable, else ["()"], ["_"] or ["(pattern)"] *)
  line : int;  (** line of its [let] or [and] *)
  attrs : string list;
      (** attribute names on the binding, prefix ([let\[@a\]]) or
          trailing ([\[@@a\]]) *)
  is_fun : bool;  (** binds a function: parameters, [fun] or [function] *)
  context : string;  (** ["Mod.Sub.name"]: enclosing modules, then name *)
  floating : string list;
      (** [\[@@@attr\]] names of every enclosing structure *)
  vb : Parsetree.value_binding;
}

type source_ctx = {
  sc_path : string;
  sc_ast : Parsetree.structure;
  sc_bindings : binding list;
      (** every let-binding of a structure, in source order: the top
          level, and modules whose body is a [struct], through functors
          and signature constraints *)
  sc_interface : string -> Parsetree.signature option;
      (** any scanned [.mli] of the tree, by normalised path *)
}

type kind =
  | File_pass of (source_ctx -> finding list)
  | Expr_pass of (Parsetree.expression -> string option)
      (** Judges each expression of a file on its own and returns the
          message when it offends.  The finding sits on the line of the
          expression, or of its function for an application, with the
          enclosing binding's context ([""] outside any binding). *)
  | Tree_pass of (string list -> finding list)
      (** Runs once over the normalised paths of every scanned file. *)

type t = {
  id : string;
  family : string;
  doc : string;
  rationale : string;  (** why the pattern is hazardous (for [--explain]) *)
  bad : string;  (** minimal offending example *)
  good : string;  (** the accepted fix *)
  dirs : string list;
  allow : string list;
  kind : kind;
}

val normalise_path : string -> string
(** Strip a leading ["./"] so directory prefixes match. *)

val contains_sub : sub:string -> string -> bool

val applies : t -> string -> bool
(** Directory scoping + allowlist, on normalised paths. *)

val bindings : Parsetree.structure -> binding list
(** The let-binding walk behind [sc_bindings]. *)

val iter_exprs : source_ctx -> (string -> Parsetree.expression -> unit) -> unit
(** Every expression of the file with the [context] of its enclosing
    binding, [""] outside any. *)

val iter_expr : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
(** An expression and every expression inside it, outermost first. *)

val ident : Parsetree.expression -> string list
(** The path components of an identifier ([Unix.time] gives
    [\["Unix"; "time"\]]); [\[\]] for any other expression. *)

val strip_stdlib : string list -> string list
(** Drop one leading ["Stdlib"] qualifier. *)

val written_cons : Parsetree.expression -> Location.t option
(** The [::] of a cons the source spells [a :: b] (a list literal's
    cells carry a ghost constructor). *)

val line : Location.t -> int

val finding :
  rule:string ->
  path:string ->
  line:int ->
  message:string ->
  context:string ->
  finding

val pp_finding : Format.formatter -> finding -> unit
(** [path:line: \[rule\] error: message]; every rule is error
    severity. *)
