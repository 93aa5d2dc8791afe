(* Handover rate policies (Mehani, Boreli, Jourjon — "Rate Control
   Adaptation for Heterogeneous Handovers").

   When a flow migrates to a link with different declared parameters,
   the TFRC state machine can: keep its state and let the feedback loop
   discover the new path (`Keep`); restart as if the connection were
   new (`Reset`); or re-seed rate, RTT estimate and loss history from
   the new link's declared bandwidth and latency (`Informed`).  The
   policy parameters live here so the proto-const lint pins them. *)

type policy = [ `Keep | `Reset | `Informed ]

type link_info = { bandwidth_bps : float; rtt : float }

let policy_name = function
  | `Keep -> "keep"
  | `Reset -> "reset"
  | `Informed -> "informed"

(* The informed policy claims half the declared bandwidth — the paper's
   conservative starting share, leaving room for cross traffic the
   declaration cannot know about. *)
let informed_share = 0.5

(* Reset restarts at the RFC 3448 initial window: two segments per
   (declared) RTT. *)
let reset_segments = 2.0

let reset_rate ~s ~rtt = reset_segments *. s /. rtt

let informed_rate link = informed_share *. link.bandwidth_bps /. 8.0

(* The loss-event rate at which the throughput equation yields the
   informed target on the new link — used to re-seed the loss history
   so the very next feedback computes a consistent equation rate. *)
let informed_p ~s link =
  Equation.loss_rate_for ~s ~r:link.rtt ~target:(informed_rate link)

let link_of ~bandwidth_bps ~rtt =
  if bandwidth_bps <= 0.0 || rtt <= 0.0 then
    invalid_arg "Handover.link_of: non-positive bandwidth or rtt";
  { bandwidth_bps; rtt }
