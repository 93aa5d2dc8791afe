(** Shared vocabulary of the analyzer ({!Check}): findings, the two
    pass shapes, and token-classification helpers used by more than one
    rule family. *)

type finding = {
  rule : string;
  family : string;
  path : string;
  line : int;
  message : string;
  context : string;  (** enclosing binding ("Mod.name") or rule anchor *)
}

type source_ctx = {
  sc_path : string;
  sc_tokens : Lexer.token array;
  sc_items : Parser.item list;
  sc_contexts : Parser.context list;
}

type tree_ctx = {
  tc_files : string list;
  tc_read : string -> string option;
}

type kind =
  | File_pass of (source_ctx -> finding list)
  | Tree_pass of (tree_ctx -> finding list)

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

val applies : t -> string -> bool
(** Directory scoping + allowlist, on normalised paths. *)

val text_at : Lexer.token array -> int -> string
(** The token's text, or [""] when the index is out of range. *)

val components : string -> string list
(** Dotted-path components of a glued identifier token. *)

val last_component : string -> string

val strip_stdlib : string -> string
(** Drop one leading ["Stdlib."] qualifier. *)

val expr_position : Lexer.token array -> int -> bool
(** Heuristic: is the token at this index in expression (not pattern)
    position?  Used for [Some], [::] and list literals. *)

val finding :
  rule:string ->
  family:string ->
  path:string ->
  line:int ->
  message:string ->
  context:string ->
  finding

val token_pass :
  rule:string ->
  family:string ->
  (Lexer.token array -> int -> Lexer.token -> string option) ->
  source_ctx ->
  finding list
(** A per-file pass that judges each token on its own: [test ts i t]
    returns the message when the token at index [i] offends.  A
    finding's context is its enclosing binding (["Mod.name"]), or [""]
    outside any binding. *)
