(** The golden-trace conformance corpus.

    A small, committed set of named scenarios whose canonical flight
    recorder traces are checked byte-for-byte on every test run: the
    headline AF and QTP_light scenarios the paper's claims rest on,
    plus a slice of the fuzz smoke corpus with shortened durations.

    Each corpus entry's canonical trace must match the file committed
    under [test/golden/], so any behavioural drift in the protocol
    stack shows up as a trace diff rather than a silent number
    change. *)

type entry = {
  name : string;  (** corpus key; also the committed file's basename *)
  descr : string;
  scenario : Scenario.t;
}

val corpus : entry list
(** Stable order; append new entries at the end, never reshuffle. *)

val find : string -> entry option

val capture : entry -> Exec.report * Trace.Recorder.t
(** Replay the entry's scenario with the flight recorder installed and
    return the run report with the filled recorder. *)
