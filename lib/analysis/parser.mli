(** Structural parser over {!Lexer.tokenize} output.

    Recovers the item structure of one OCaml source file — let-bindings
    (with attributes, function-ness and body span), [struct ... end]
    modules, floating attributes — without compiler-libs, so the rule
    passes can reason about scope ("is this binding top-level mutable
    state?", "is this token inside a [\[@vtp.hot\]] body?") on code
    that may not even compile.

    Heuristic by design: item boundaries are depth-0 item keywords whose
    preceding token ends an expression, which distinguishes a new
    [let] item from a [let ... in] inside a body. *)

type binding = {
  bname : string;  (** ["()"] / ["(pattern)"] for non-variable patterns *)
  bline : int;
  battrs : string list;
      (** [\[@attr\]] names on the binding, leading or trailing *)
  bfun : bool;  (** has parameters, or body starts with [fun]/[function] *)
  bspan : int * int;  (** token index range of the whole item, half-open *)
  bbody : int * int;  (** tokens after the binding's [=]; empty if none *)
}

type item =
  | Let of binding
  | Module of { mname : string; mline : int; mitems : item list }
  | Floating of { aname : string; aline : int }
      (** [\[@@@attr\]] — scopes over the enclosing structure *)
  | Other of { okw : string; oline : int; ospan : int * int }
      (** [type]/[open]/[module type]/... items the passes don't model *)

type context = {
  cx_binding : binding;
  cx_mods : string list;  (** enclosing module names, outermost first *)
  cx_floating : string list;
      (** floating attribute names of every enclosing structure *)
}

val is_ender : Lexer.token -> bool
(** Can this token end an expression (identifier, literal, closer)?
    The boundary test behind item splitting, exposed for rules that
    need the same "what precedes me" classification. *)

val parse : Lexer.token array -> item list

val contexts : item list -> context list
(** Every binding in the file, each with its enclosing module path and
    the floating attributes in scope, in source order. *)

val enclosing : context list -> int -> context option
(** The binding whose item span contains the given token index. *)

val qualified_name : context -> string
(** ["Mod.sub.name"] — stable context string for fingerprints. *)
