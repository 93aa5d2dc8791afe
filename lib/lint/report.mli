(** The analyzer's report: entry records with line-insensitive
    fingerprints, deterministic ordering, and SARIF 2.1.0-style JSON
    emission.  Every rule is error severity. *)

type entry = {
  rule : string;
  family : string;
  path : string;
  line : int;
  message : string;
  context : string;
  fingerprint : string;  (** MD5 over rule|path|context|message *)
}

val make :
  rule:string ->
  family:string ->
  path:string ->
  line:int ->
  message:string ->
  context:string ->
  entry

val of_check : Pass.finding list -> entry list

val sort : entry list -> entry list
(** By (path, line, rule, message), so the order is a function of the
    findings alone. *)

val sarif : rules:(string * string) list -> (entry * bool) list -> Stats.Json.t
(** SARIF-style report; [rules] is (id, doc) metadata for the tool
    section, the [bool] is "is new vs the baseline" (rendered as
    [baselineState]). *)

val pp_entry : Format.formatter -> entry * bool -> unit
(** [file:line: [rule] error: message] with a ["(baselined)"] suffix on
    suppressed findings. *)
