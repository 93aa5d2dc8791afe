(** The analyzer: one registry of passes over the {!Lexer} token
    stream and the {!Parser} item structure (determinism/race, hot-path
    allocation, protocol-constant conformance, API hygiene) with
    deterministic parallel driving.

    Token rules pattern-match short windows; structural passes reason
    about scope — which binding a token lives in, whether that binding
    is top-level state, whether it is marked [\[@vtp.hot\]]. *)

val passes : Pass.t list
(** Registry order: determinism, hot-path, constants, hygiene. *)

val find_pass : string -> Pass.t option

val source_ctx : path:string -> string -> Pass.source_ctx
(** Tokenize + parse one file (exposed for tests). *)

val run_string : path:string -> string -> Pass.finding list
(** All applicable per-file passes over one file's contents, sorted. *)

val run_files : ?jobs:int -> (string * string) list -> Pass.finding list
(** Per-file passes fanned over an {!Engine.Pool} (submission order)
    plus tree passes over the given (path, contents) set — the whole
    analyzer on an in-memory tree.  Sorted by (path, line, rule,
    message), so the result is identical at any [jobs]. *)

val run_tree : ?jobs:int -> roots:string list -> unit -> Pass.finding list
(** {!run_files} over every [.ml]/[.mli] under the roots. *)
