(** API hygiene passes: [test-only-escape] (test_only_* hooks
    referenced outside test/), [undeclared-export] (cross-library
    value references absent from the target .mli), [missing-mli]
    (library modules without an interface), and the expression rules
    [poly-compare], [float-eq], [obj-magic], [assert-false] and
    [failwith-empty]. *)

val passes : Pass.t list
