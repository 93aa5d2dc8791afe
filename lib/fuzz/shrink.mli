(** Greedy minimisation of a failing scenario.

    Starting from a scenario known to fail, repeatedly applies the
    simplest edit (single flow, no background, no RED, no loss, one
    fault class at a time, greedy workload, shorter run, canonical path
    parameters) that keeps the failure alive, until no candidate edit
    does.  The result typically isolates the one fault class and the
    smallest topology that reproduce the bug. *)

type outcome = {
  shrunk : Scenario.t;
  executions : int;  (** scenario runs spent shrinking *)
  steps : int;  (** accepted simplifications *)
}

val shrink : still_fails:(Scenario.t -> bool) -> Scenario.t -> outcome
(** [shrink ~still_fails sc] greedily minimises [sc].  [still_fails]
    must re-execute the scenario and decide whether the original
    failure (or an equally interesting one) persists; it is called at
    most 60 times. *)
