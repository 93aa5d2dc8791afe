(* Paper- and RFC-derived protocol invariants, checked over an abstract
   observation stream.  Observations are fed live: the experiment
   harness taps endpoints and the sender's rate updates, and tests feed
   link and mangler taps directly. *)

type event =
  | Epoch
  | Rate of Qtp.Inspect.rate_sample
  | Sent of { at : float; flow : int; uid : int }
  | Delivered of { at : float; flow : int; uid : int }
  | Dropped of { at : float; flow : int; uid : int }
  | Feedback of {
      at : float;
      flow : int;
      cum_ack : int;
      blocks : (int * int) list;  (* half-open [start, end) *)
      window_hi : int option;  (* one past the highest sequence sent *)
    }

type violation = {
  invariant : string;
  at : float;
  flow : int;
  detail : string;
}

exception Violation of violation

let pp_violation fmt v =
  Format.fprintf fmt "invariant %S violated at t=%.6f (flow %d): %s"
    v.invariant v.at v.flow v.detail

(* Relative tolerance: the sender's clamp arithmetic is exact float
   max/min, but rates cross a bytes<->bits conversion on the way to the
   checker. *)
let tol x = 1e-9 *. Float.max 1.0 (Float.abs x)

type check = event -> (float * int * string) option
(* at, flow, detail *)

(* --- gTFRC floor: X >= min(g, X_calc) outside slow start (paper §4;
   Lochin et al.'s gTFRC).  The AF reservation stays paid for even when
   the equation says less. *)
let gtfrc_floor () : check = function
  | Rate r
    when (not r.slow_start) && r.p > 0.0 && r.g_bps > 0.0
         && r.x_bps +. tol r.g_bps < Float.min r.g_bps r.x_calc_bps ->
      Some
        ( r.at,
          r.flow_id,
          Printf.sprintf
            "X = %.0f bit/s below min(g = %.0f, X_calc = %.0f): the \
             negotiated AF floor is not being honoured"
            r.x_bps r.g_bps r.x_calc_bps )
  | _ -> None

(* --- RFC 3448 §4.3 rate bounds: s/t_mbi <= X <= 2*X_recv (the upper
   bound relaxed by the gTFRC floor g and the mbi floor themselves), and
   X never above the negotiated interface ceiling. *)
let tfrc_rate_bounds () : check = function
  | Rate r when r.x_bps +. tol r.mbi_floor_bps < r.mbi_floor_bps ->
      Some
        ( r.at,
          r.flow_id,
          Printf.sprintf
            "X = %.3f bit/s below the one-packet-per-t_mbi floor %.3f"
            r.x_bps r.mbi_floor_bps )
  | Rate r
    when (match r.cap_bps with
         | Some cap -> r.x_bps > cap +. tol cap
         | None -> false) ->
      Some
        ( r.at,
          r.flow_id,
          Printf.sprintf "X = %.0f bit/s above the negotiated ceiling %.0f"
            r.x_bps
            (Option.value r.cap_bps ~default:0.0) )
  | Rate r
    when (not r.slow_start)
         && r.p > 0.0
         &&
         let bound =
           Float.max (2.0 *. r.x_recv_bps)
             (Float.max r.g_bps r.mbi_floor_bps)
         in
         r.x_bps > bound +. tol bound ->
      Some
        ( r.at,
          r.flow_id,
          Printf.sprintf
            "X = %.0f bit/s exceeds max(2*X_recv = %.0f, g = %.0f, \
             s/t_mbi = %.0f)"
            r.x_bps
            (2.0 *. r.x_recv_bps)
            r.g_bps r.mbi_floor_bps )
  | _ -> None

(* --- SACK feedback well-formedness (RFC 2018 block rules, adapted to
   the light plane): non-empty half-open blocks, pairwise disjoint,
   strictly above the cumulative ack, below the highest sequence the
   sender has emitted.  Wire order is most-recently-changed first, so
   blocks are sorted before the disjointness check. *)
let sack_wellformed () : check = function
  | Feedback f ->
      let bad msg = Some (f.at, f.flow, msg) in
      let rec check_sorted = function
        | (s1, e1) :: ((s2, _) :: _ as rest) ->
            if e1 > s2 then
              bad
                (Printf.sprintf
                   "SACK blocks overlap: [%d,%d) and [%d,...)" s1 e1 s2)
            else check_sorted rest
        | [ _ ] | [] -> None
      in
      let empty =
        List.find_opt (fun (s, e) -> s >= e) f.blocks
      in
      let below_cum =
        List.find_opt (fun (s, _) -> s <= f.cum_ack) f.blocks
      in
      let above_window =
        match f.window_hi with
        | None -> None
        | Some hi -> List.find_opt (fun (_, e) -> e > hi) f.blocks
      in
      (match (empty, below_cum, above_window) with
      | Some (s, e), _, _ ->
          bad (Printf.sprintf "empty/reversed SACK block [%d,%d)" s e)
      | None, Some (s, e), _ ->
          bad
            (Printf.sprintf
               "SACK block [%d,%d) not above cum_ack %d (already \
                acknowledged data re-reported)"
               s e f.cum_ack)
      | None, None, Some (s, e) ->
          bad
            (Printf.sprintf
               "SACK block [%d,%d) beyond the highest sent sequence %d \
                (receiver acknowledging data that never existed)"
               s e
               (Option.value f.window_hi ~default:0))
      | None, None, None ->
          check_sorted
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) f.blocks))
  | _ -> None

(* --- Cumulative-ack monotonicity: the light plane's cumulative point
   never moves backwards. *)
let cum_ack_monotone () : check =
  let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
  function
  | Epoch ->
      Hashtbl.reset last;
      None
  | Feedback f -> (
      match Hashtbl.find_opt last f.flow with
      | Some prev when f.cum_ack < prev ->
          Some
            ( f.at,
              f.flow,
              Printf.sprintf "cum_ack went backwards: %d after %d" f.cum_ack
                prev )
      | _ ->
          Hashtbl.replace last f.flow f.cum_ack;
          None)
  | _ -> None

(* --- Packet conservation: every delivered or dropped frame was sent
   exactly once, and no frame is accounted twice — so at any instant
   sent = delivered + lost + in_flight. *)
type fate = Flying | Landed of string

let packet_conservation () : check =
  let seen : (int, fate) Hashtbl.t = Hashtbl.create 1024 in
  let settle at flow uid how =
    match Hashtbl.find_opt seen uid with
    | None ->
        Some
          ( at,
            flow,
            Printf.sprintf "frame #%d %s but never sent" uid how )
    | Some (Landed how0) ->
        Some
          ( at,
            flow,
            Printf.sprintf "frame #%d %s after already being %s" uid how how0
          )
    | Some Flying ->
        Hashtbl.replace seen uid (Landed how);
        None
  in
  function
  | Sent s -> (
      match Hashtbl.find_opt seen s.uid with
      | Some _ ->
          Some
            ( s.at,
              s.flow,
              Printf.sprintf "frame #%d injected twice" s.uid )
      | None ->
          Hashtbl.replace seen s.uid Flying;
          None)
  | Delivered d -> settle d.at d.flow d.uid "delivered"
  | Dropped d -> settle d.at d.flow d.uid "dropped"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Catalogue *)

(* Each invariant by the name a violation reports; the interface gives
   the paper section or RFC each one encodes. *)
let catalogue =
  [
    ("gtfrc-floor", gtfrc_floor);
    ("tfrc-rate-bounds", tfrc_rate_bounds);
    ("sack-wellformed", sack_wellformed);
    ("cum-ack-monotone", cum_ack_monotone);
    ("packet-conservation", packet_conservation);
  ]

(* ------------------------------------------------------------------ *)
(* Checker *)

type t = {
  checks : (string * check) list;
  mutable violations : violation list;  (* newest first, bounded *)
  mutable events : int;
}

(* Violations retained per checker. *)
let limit = 100

let create () =
  {
    checks = List.map (fun (name, make) -> (name, make ())) catalogue;
    violations = [];
    events = 0;
  }

let feed t ev =
  t.events <- t.events + 1;
  List.iter
    (fun (name, check) ->
      if List.length t.violations < limit then
        match check ev with
        | Some (at, flow, detail) ->
            t.violations <- { invariant = name; at; flow; detail } :: t.violations
        | None -> ())
    t.checks

let events_seen t = t.events

let violations t = List.rev t.violations

let first_violation t =
  match List.rev t.violations with v :: _ -> Some v | [] -> None

let check_exn t =
  match first_violation t with Some v -> raise (Violation v) | None -> ()
