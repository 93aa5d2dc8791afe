(** A scheduled simulation event — the record {!Sim} files in its
    {!Wheel}.

    This is an internal engine type: records are pooled and reused by
    {!Sim}, so nothing outside the engine should retain one.  The
    mutable [gen] field is bumped on every reuse; handles compare it to
    detect staleness.  [tick], [where] and [pos] are scratch fields
    owned by the {!Wheel} scheduler (bucket location bookkeeping for
    O(1) cancellation). *)

type t = {
  mutable time : float;  (** absolute virtual due time *)
  mutable seq : int;  (** global tie-break: insertion order *)
  mutable run : unit -> unit;
  mutable live : bool;  (** false once cancelled *)
  mutable gen : int;  (** reuse generation, for stale-handle detection *)
  mutable tick : int;  (** wheel: quantised due time *)
  mutable where : int;  (** wheel: bucket id, {!in_ready} or {!in_none} *)
  mutable pos : int;  (** wheel: index within its bucket *)
}

val noop : unit -> unit
(** Shared do-nothing thunk installed in recycled records so a pooled
    event never retains a caller closure. *)

val in_none : int
(** [where] code: not held by any scheduler structure. *)

val in_ready : int
(** [where] code: staged in the wheel's ready heap. *)

val make_dummy : unit -> t
(** A fresh dead record, used to pad scheduler-internal arrays. *)
