(** Command-line pieces shared by the [vtp_*] tools that fan out. *)

val jobs : doc:string -> int option Cmdliner.Term.t
(** [--jobs N] / [-j N], falling back to [$VTP_JOBS] when the flag is
    absent; both go through {!Engine.Pool.jobs_of_string}, so a value
    below 1 or not an integer is a usage error (exit 124) that names
    the flag or the variable, and a value above 128 is clamped.  [None]
    when neither is given: the pool then uses the recommended domain
    count. *)
