type rate_sample = {
  at : float;
  flow_id : int;
  x_bps : float;
  x_calc_bps : float;
  x_recv_bps : float;
  p : float;
  g_bps : float;
  cap_bps : float option;
  mbi_floor_bps : float;
  slow_start : bool;
}

(* Domain-local so parallel suites (Engine.Pool) can each run a checked
   simulation with its own hook; within a domain the "one simulation
   at a time" discipline is unchanged. *)
let current : (rate_sample -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let install f = Domain.DLS.get current := Some f

let clear () = Domain.DLS.get current := None

let hook () = !(Domain.DLS.get current)
