(** The OCaml lexer under every {!Check} pass, plus the path and tree
    plumbing the analyzer shares.

    It lexes OCaml just deeply enough to be trustworthy — comments
    (nested, with embedded strings), string/char literals, dotted paths
    glued into single tokens, float vs int literals — so passes never
    fire inside comments or strings. *)

type token_kind = Ident | Float_lit | Int_lit | String_lit | Op

type token = { kind : token_kind; text : string; tline : int }

val tokenize : string -> token list

val normalise_path : string -> string
(** Strip a leading ["./"] so directory prefixes match. *)

val contains_sub : sub:string -> string -> bool

val walk : string -> string list
(** Source files ([.ml]/[.mli]) under a directory, skipping dot- and
    underscore-prefixed entries.  Order is unspecified. *)

val read_file : string -> string
