(** Minimal JSON tree, serialiser and reader for machine-readable
    outputs (benchmark reports, tooling hand-offs) — no external JSON
    dependency.

    Serialisation is deterministic (object fields print in the order
    given), NaN and infinities are emitted as [null] so the output
    always parses, and strings are escaped per RFC 8259.  The reader
    ({!of_string}) exists so perfbench can load [BENCHMARK.json]; it
    accepts standard JSON, not just our own output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_channel : out_channel -> t -> unit
(** Render with a 2-space indent, plus a trailing newline. *)

exception Parse_error of string
(** Raised by {!of_string} with an offset and a description. *)

val of_string : string -> t
(** Parse one JSON value (plus surrounding whitespace).  Numbers
    without a fraction or exponent become [Int], all others [Float];
    [\uXXXX] escapes above 0x7f decode as ['?'] (the emitter never
    produces them).  @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] on
    a missing key or a non-object. *)
