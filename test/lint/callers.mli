(** The dead-export guard: each value a [lib/] interface exports must be
    named by some other file of the tree.

    A reference counts through a qualified path, a [module X = ...]
    alias, an [include], or an [open], [let open] or [M.( ... )] scope;
    a module passed whole to a functor, or packed as a first-class
    value, uses every value it exports.  A name written in the
    exporting module's own [.ml] does not count. *)

val dead_exports : (string * string) list -> string list
(** [dead_exports files] takes [(path, contents)] pairs, paths relative
    to the repository root: every [.ml] and [.mli] of the tree, and the
    [lib/<dir>/dune] files that name each library.  It returns
    ["path: value"] for each [val] of a [lib/] interface that no other
    file references, in path order, then interface order.
    @raise Syntaxerr.Error (or the lexer's error) on a file the OCaml
    parser rejects. *)

val unread_fields : (string * string) list -> string list
(** The exported-field guard, which the compiler's unused-field warning
    cannot be, since it does not see past an interface.  [unread_fields
    files] takes the same pairs as {!dead_exports} and returns
    ["path: type.label"] for each record label a [lib/] interface
    declares (inline records included) that no implementation reads, in
    path order, then declaration order.  A read is a field access
    ([r.label]) or a record pattern that binds or tests the label;
    building a record, [{ r with label = ... }] and [r.label <- v] are
    not.  Labels match by name alone, so a label that shares its name
    with a read one counts as read.
    @raise Syntaxerr.Error (or the lexer's error) on a file the OCaml
    parser rejects. *)

val read_tree : roots:string list -> skip:string list -> (string * string) list
(** The [.ml] and [.mli] files under [roots], and the [lib/<dir>/dune]
    files, skipping dot- and underscore-prefixed entries and the
    directories in [skip]. *)
