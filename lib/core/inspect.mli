(** Connection observability hook for the invariant checker.

    When a hook is installed (the experiment harness's [~checked:true]
    mode), every {!Connection} reports a {!rate_sample} each time its
    TFRC sender processes feedback — the exact inputs and output of the
    rate update, so a checker can assert the gTFRC floor and the
    RFC 3448 rate bounds without reaching into sender internals.

    The registry is deliberately ambient (one simulation at a time per
    domain): the harness installs the hook around a run and {!clear}s it
    after, and no per-connection plumbing is needed across the
    experiment scenarios. *)

type rate_sample = {
  at : float;
  flow_id : int;
  x_bps : float;  (** allowed rate after this update *)
  x_calc_bps : float;  (** equation rate for (rtt, p); [infinity] if p = 0 *)
  x_recv_bps : float;  (** receiver-reported rate in this feedback *)
  p : float;  (** loss event rate driving the update *)
  g_bps : float;  (** negotiated AF target ([agreed.target_bps]); 0 = none *)
  cap_bps : float option;  (** configured interface ceiling *)
  mbi_floor_bps : float;  (** one packet per t_mbi, in bit/s *)
  slow_start : bool;
}

val install : (rate_sample -> unit) -> unit

val clear : unit -> unit

val hook : unit -> (rate_sample -> unit) option
