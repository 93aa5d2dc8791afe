type ge_state = Good | Bad

type kind =
  | None_
  | Custom of { expected : float; oracle : unit -> bool }
  | Bernoulli of { p : float; rng : Engine.Rng.t }
  | Gilbert of {
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
      rng : Engine.Rng.t;
      mutable state : ge_state;
    }

type t = kind

let none = None_

let bernoulli ~p ~rng =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Loss_model.bernoulli: p outside [0, 1]";
  Bernoulli { p; rng }

let gilbert_elliott ~p_good_to_bad ~p_bad_to_good ~loss_good ~loss_bad ~rng =
  assert (p_good_to_bad >= 0.0 && p_good_to_bad <= 1.0);
  assert (p_bad_to_good > 0.0 && p_bad_to_good <= 1.0);
  Gilbert
    {
      p_gb = p_good_to_bad;
      p_bg = p_bad_to_good;
      loss_good;
      loss_bad;
      rng;
      state = Good;
    }

(* Stationary loss = pi_bad * loss_bad with loss_good = 0.  We fix
   loss_bad and derive the state probabilities; burstiness shrinks the
   bad->good escape probability, lengthening loss bursts. *)
let gilbert ~loss ~burstiness ~rng =
  if not (loss > 0.0 && loss < 0.5) then
    invalid_arg "Loss_model.gilbert: loss outside (0, 0.5)";
  if not (burstiness >= 0.0 && burstiness <= 1.0) then
    invalid_arg "Loss_model.gilbert: burstiness outside [0, 1]";
  let loss_bad = 0.5 in
  let pi_bad = loss /. loss_bad in
  let p_bg = 0.5 *. (1.0 -. (0.9 *. burstiness)) in
  let p_gb = p_bg *. pi_bad /. (1.0 -. pi_bad) in
  (* A high loss needs the Bad state often, which a fast Bad->Good
     escape can only give with p_gb > 1. *)
  if p_gb > 1.0 then
    invalid_arg "Loss_model.gilbert: loss too high for this burstiness";
  gilbert_elliott ~p_good_to_bad:p_gb ~p_bad_to_good:p_bg ~loss_good:0.0
    ~loss_bad ~rng

let custom ~expected oracle = Custom { expected; oracle }

let drops = function
  | None_ -> false
  | Custom { oracle; _ } -> oracle ()
  | Bernoulli { p; rng } -> Engine.Rng.chance rng p
  | Gilbert g ->
      (* Advance the chain, then roll the state-dependent loss. *)
      (match g.state with
      | Good -> if Engine.Rng.chance g.rng g.p_gb then g.state <- Bad
      | Bad -> if Engine.Rng.chance g.rng g.p_bg then g.state <- Good);
      let p = match g.state with Good -> g.loss_good | Bad -> g.loss_bad in
      Engine.Rng.chance g.rng p

let expected_loss_rate = function
  | None_ -> 0.0
  | Custom { expected; _ } -> expected
  | Bernoulli { p; _ } -> p
  | Gilbert g ->
      let pi_b = g.p_gb /. (g.p_gb +. g.p_bg) in
      (pi_b *. g.loss_bad) +. ((1.0 -. pi_b) *. g.loss_good)
