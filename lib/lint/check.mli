(** The analyzer: one registry of passes over the compiler's parse tree
    (determinism/race, hot-path allocation, protocol-constant
    conformance, API hygiene), driven over a file set on one domain.

    Expression rules judge one expression at a time; structural passes
    reason about scope — which binding an expression lives in, whether
    that binding is top-level state, whether it is marked
    [\[@vtp.hot\]]. *)

val passes : Pass.t list
(** Registry order: determinism, hot-path, constants, hygiene. *)

val find_pass : string -> Pass.t option

val source_ctx : path:string -> string -> Pass.source_ctx
(** Parse one implementation, with no interfaces in scope, and walk its
    bindings (exposed for tests).
    @raise Pass.Syntax_error when the OCaml parser rejects it. *)

val run_string : path:string -> string -> Pass.finding list
(** All applicable per-file passes over one file's contents, sorted.
    @raise Pass.Syntax_error as {!source_ctx}. *)

val run_files : (string * string) list -> Pass.finding list
(** Every file parsed once ([.mli] as an interface, then [.ml] as an
    implementation), per-file passes over each [.ml], then tree passes
    over the file list — the whole analyzer on an in-memory tree.
    Sorted by (path, line, rule, message).
    @raise Pass.Syntax_error on the first file the OCaml parser rejects:
    interfaces first, each kind in path order. *)

val run_tree : roots:string list -> Pass.finding list
(** {!run_files} over every [.ml]/[.mli] under the root directories,
    skipping dot- and underscore-prefixed entries.
    @raise Sys_error when a root or a file cannot be read. *)
