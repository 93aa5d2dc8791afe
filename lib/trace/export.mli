(** Trace serialisation: canonical text, digests and a line diff.

    The canonical form is the conformance artefact: a small line-based
    text whose bytes are a pure function of the recorded events, so two
    runs agree iff their canonical traces are byte-identical and a
    digest pins a whole corpus entry to one string.

    {v
    # vtp-trace-1
    flow 0 events=812 dropped=0
    0x0p+0 state established
    0x1.0624dd2f1a9fcp-10 send seq=0 size=1000 retx=0
    ...
    v}

    Timestamps and floats render as lossless hexadecimal literals;
    flows print in ascending id order. *)

val magic : string
(** First line of every canonical trace ("# vtp-trace-1"). *)

val canonical : Recorder.t -> string
(** The full canonical text (trailing newline included). *)

val digest : Recorder.t -> string
(** MD5 of {!canonical}, as a lowercase hex string. *)

val digest_of_string : string -> string
(** Digest of an already-serialised canonical trace. *)

type divergence = {
  line : int;  (** 1-based line number of the first difference *)
  left : string option;  (** that line on the left, if present *)
  right : string option;  (** that line on the right, if present *)
}

val diff : string -> string -> divergence option
(** [diff a b] compares two canonical traces line by line and returns
    the first divergence, or [None] when byte-identical. *)

val pp_divergence : Format.formatter -> divergence -> unit
