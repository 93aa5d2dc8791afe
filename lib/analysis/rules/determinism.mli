(** Determinism / race passes: top-level mutable state outside
    [Domain.DLS] ([top-level-state]), [Hashtbl.iter]/[fold] feeding
    ordered output ([hashtbl-order]), wall-clock reads outside the sim
    clock ([wall-clock]), global [Random] draws outside the engine's
    RNG ([random-call]) and [Domain.spawn] outside the engine's pool
    ([domain-spawn]). *)

val passes : Pass.t list
