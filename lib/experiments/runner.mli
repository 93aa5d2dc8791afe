(** Registry of all reproducible experiments. *)

type entry = {
  id : string;  (** e.g. "e1" *)
  title : string;
  claim : string;  (** the paper claim being validated *)
  run : seed:int -> Stats.Table.t;
}

val all : entry list
(** E1..E10 then the ablations, in order. *)

val find : string -> entry option

val run_all :
  ?seed:int ->
  ?ids:string list ->
  ?format:[ `Table | `Csv ] ->
  ?checked:bool ->
  ?trace:bool ->
  ?jobs:int ->
  out:Format.formatter ->
  unit ->
  unit
(** Run (a subset of) the suite, printing each table (or CSV blocks with
    [~format:`Csv]).  With [~checked:true] each entry runs under
    {!Common.with_checked}, raising {!Analysis.Invariants.Violation} on
    the first protocol-invariant violation.  With [~trace:true] each
    entry runs under {!Common.with_trace} and (in table format) a
    per-entry event count and canonical digest is printed.

    Entries are fanned out by {!Engine.Pool.map} on [jobs] workers
    (default [$VTP_JOBS] or the recommended domain count); output is
    buffered per entry and emitted in registry order, so the bytes
    printed — including the prefix before a [~checked] violation is
    re-raised — are identical at any [jobs]. *)
