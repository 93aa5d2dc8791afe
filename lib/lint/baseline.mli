(** Baseline gating: a committed JSON file (analysis/BASELINE.json) of
    suppressed-but-tracked findings, matched by fingerprint multiset so
    line churn never resurfaces a baselined finding while a genuinely
    new instance still gates. *)

exception Malformed of string
(** Unparsable JSON, wrong schema tag, or findings without
    fingerprints.  The CLI maps this to exit code 2. *)

type t

val of_entries : Report.entry list -> t

val to_json : Report.entry list -> Stats.Json.t

val of_string : string -> t
(** @raise Malformed on invalid input. *)

val load : string -> t
(** @raise Malformed on invalid input or a missing file. *)

val save : string -> Report.entry list -> unit

val classify : t -> Report.entry list -> (Report.entry * bool) list
(** Tag each entry with "is new": baselined fingerprints absorb as many
    current findings as the baseline holds copies.  Pass entries
    through {!Report.sort} first so absorption is deterministic. *)
