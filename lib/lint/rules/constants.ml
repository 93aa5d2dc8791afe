(* Protocol-constant conformance.

   RFC 3448 and the paper fix a handful of magic numbers — the §5.4
   loss-interval weight vector, the throughput-equation coefficients,
   the nofeedback backoff, the dupack threshold.  Each is declared once
   here as (file, anchor binding, expected numeric run) and the pass
   re-derives the run from the parsed literals, so silent drift in any
   copy fails @lint with a pointer to the authority. *)

let family = "protocol-constants"

type projection =
  | Floats_only  (** only float literals, in source order *)
  | All_numeric  (** int and float literals, in source order *)

type entry = {
  cid : string;  (** authority, e.g. "rfc3448.s5-4.weights" *)
  cfile : string;  (** path suffix of the owning source file *)
  anchor : string;  (** top-level binding holding the constants *)
  cdoc : string;
  proj : projection;
  expect : float list;  (** consecutive literal run that must appear *)
}

let table =
  [
    {
      cid = "rfc3448.s5-4.weights";
      cfile = "lib/tfrc/loss_history.ml";
      anchor = "weight";
      cdoc = "loss-interval weights 1,1,1,1,0.8,0.6,0.4,0.2 (RFC 3448 §5.4)";
      proj = Floats_only;
      expect = [ 0.8; 0.6; 0.4; 0.2 ];
    };
    {
      cid = "rfc3448.ndup";
      cfile = "lib/tfrc/loss_history.ml";
      anchor = "ndup";
      cdoc = "NDUPACK = 3 later packets make a hole a loss (RFC 3448 §5.1)";
      proj = All_numeric;
      expect = [ 3. ];
    };
    {
      cid = "rfc3448.history-depth";
      cfile = "lib/tfrc/loss_history.ml";
      anchor = "history";
      cdoc = "loss-interval history depth n = 8 (RFC 3448 §5.4)";
      proj = All_numeric;
      expect = [ 8. ];
    };
    {
      cid = "rfc3448.p-unit-ceiling";
      cfile = "lib/tfrc/loss_history.ml";
      anchor = "loss_event_rate";
      cdoc = "loss-event rate capped at 1.0 = 1/mean interval";
      proj = Floats_only;
      expect = [ 1.0; 1.0 ];
    };
    {
      cid = "rfc3448.throughput-eq";
      cfile = "lib/tfrc/equation.ml";
      anchor = "rate";
      cdoc =
        "TCP throughput equation coefficients sqrt(2bp/3), \
         t_rto*(3*sqrt(3bp/8))*p*(1+32p^2) (RFC 3448 §3.1)";
      proj = Floats_only;
      expect = [ 2.0; 3.0; 3.0; 8.0; 3.0; 1.0; 32.0 ];
    };
    {
      cid = "rfc3448.rto-coefficient";
      cfile = "lib/tfrc/equation.ml";
      anchor = "rate";
      cdoc = "b = 1 packet per ACK, t_RTO = 4R (RFC 3448 §3.1)";
      proj = Floats_only;
      expect = [ 1.0; 4.0 ];
    };
    {
      cid = "rfc3448.rtt-filter";
      cfile = "lib/tfrc/rtt.ml";
      anchor = "q";
      cdoc = "RTT filter constant q = 0.9 (RFC 3448 §4.3)";
      proj = Floats_only;
      expect = [ 0.9 ];
    };
    {
      cid = "paper.sender-defaults";
      cfile = "lib/tfrc/sender.ml";
      anchor = "default_params";
      cdoc = "segment 1500 B, initial RTT 0.5 s (RFC 3448 §4.2), no floor";
      proj = All_numeric;
      expect = [ 1500.; 0.5; 0.0 ];
    };
    {
      cid = "rfc3448.t-mbi";
      cfile = "lib/tfrc/sender.ml";
      anchor = "t_mbi";
      cdoc = "maximum backoff interval t_mbi = 64 s (RFC 3448 §4.3)";
      proj = Floats_only;
      expect = [ 64.0 ];
    };
    {
      cid = "rfc3448.initial-window";
      cfile = "lib/tfrc/sender.ml";
      anchor = "create";
      cdoc = "initial rate 2 segments per initial RTT (RFC 3448 §4.2)";
      proj = Floats_only;
      expect = [ 2.0 ];
    };
    {
      cid = "rfc3448.nofeedback-backoff";
      cfile = "lib/tfrc/sender.ml";
      anchor = "restart_nofeedback";
      cdoc =
        "nofeedback timer: halve the rate, re-arm at max(4R, 2s/X) \
         (RFC 3448 §4.4)";
      proj = Floats_only;
      expect = [ 2.0; 0.0; 0.0; 4.0; 2.0 ];
    };
    {
      cid = "rfc3448.feedback-timer-floor";
      cfile = "lib/tfrc/receiver.ml";
      anchor = "arm_timer";
      cdoc = "feedback timer floor 1e-4 s before the first RTT sample";
      proj = Floats_only;
      expect = [ 1e-4 ];
    };
    {
      cid = "handover.informed-share";
      cfile = "lib/tfrc/handover.ml";
      anchor = "informed_share";
      cdoc =
        "informed handover starts at half the declared bandwidth \
         (Mehani et al.)";
      proj = Floats_only;
      expect = [ 0.5 ];
    };
    {
      cid = "handover.reset-window";
      cfile = "lib/tfrc/handover.ml";
      anchor = "reset_segments";
      cdoc = "reset handover restarts at 2 segments per declared RTT";
      proj = Floats_only;
      expect = [ 2.0 ];
    };
    {
      cid = "paper.dupack-threshold";
      cfile = "lib/sack/scoreboard.ml";
      anchor = "dupthresh";
      cdoc = "SACK dupthresh 3 (fast-retransmit trigger)";
      proj = All_numeric;
      expect = [ 3. ];
    };
    {
      cid = "sack.scoreboard-ring";
      cfile = "lib/sack/scoreboard.ml";
      anchor = "create";
      cdoc = "scoreboard ring: default and floor 16 slots, doubled to size";
      proj = All_numeric;
      (* default ring capacity 16, and the power-of-two rounding loop's
         16 floor and 2 factor. *)
      expect = [ 16.; 16.; 2. ];
    };
    {
      cid = "trunk.drr-quantum";
      cfile = "lib/trunk/sched.ml";
      anchor = "default_quantum";
      cdoc =
        "DRR quantum 1500 B = one MTU per unit weight per round \
         (Shreedhar & Varghese)";
      proj = All_numeric;
      expect = [ 1500. ];
    };
    {
      cid = "trunk.frame-cap";
      cfile = "lib/trunk/frame.ml";
      anchor = "default_frame_cap";
      cdoc = "sub-frame payload cap 512 B (>= 3 frames per 1500 B segment)";
      proj = All_numeric;
      expect = [ 512. ];
    };
  ]

(* [expect] must appear as a consecutive run in the literal projection. *)
let has_run nums expect =
  let nums = Array.of_list nums and expect = Array.of_list expect in
  let n = Array.length nums and m = Array.length expect in
  let rec at i j = j >= m || (Float.equal nums.(i + j) expect.(j) && at i (j + 1)) in
  let rec search i = i + m <= n && (at i 0 || search (i + 1)) in
  m = 0 || search 0

(* The binding's numeric literals, in source order: its patterns'
   included, as each one is a written constant. *)
let literal_run (b : Pass.binding) proj =
  let out = ref [] in
  let add (loc : Location.t) (c : Parsetree.constant) =
    let text =
      match c with
      | Pconst_float (s, _) -> Some s
      | Pconst_integer (s, _) when proj = All_numeric -> Some s
      | _ -> None
    in
    match Option.bind text float_of_string_opt with
    | Some v -> out := (loc.loc_start.pos_cnum, v) :: !out
    | None -> ()
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_constant c -> add e.pexp_loc c
          | _ -> ());
          default.expr it e);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_constant c -> add p.ppat_loc c
          | _ -> ());
          default.pat it p);
    }
  in
  it.value_binding it b.vb;
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) !out)

let pp_expect expect =
  String.concat ", "
    (List.map (fun v -> Printf.sprintf "%g" v) expect)

let run (sc : Pass.source_ctx) =
  List.filter_map
    (fun e ->
      if not (String.ends_with ~suffix:e.cfile sc.sc_path) then None
      else
        (* the anchor is a top-level binding: its context is its name *)
        match
          List.find_opt
            (fun (b : Pass.binding) -> b.context = e.anchor)
            sc.sc_bindings
        with
        | None ->
            Some
              (Pass.finding ~rule:"proto-const" ~path:sc.sc_path
                 ~line:1
                 ~message:
                   (Printf.sprintf
                      "declared constant anchor '%s' (%s: %s) not found; \
                       update the table in rules/constants.ml alongside the \
                       refactor"
                      e.anchor e.cid e.cdoc)
                 ~context:e.cid)
        | Some b ->
            if has_run (literal_run b e.proj) e.expect then None
            else
              Some
                (Pass.finding ~rule:"proto-const" ~path:sc.sc_path
                   ~line:b.line
                   ~message:
                     (Printf.sprintf
                        "constants in '%s' drifted from %s (%s): expected \
                         the literal run [%s]"
                        e.anchor e.cid e.cdoc (pp_expect e.expect))
                   ~context:e.cid))
    table

let passes : Pass.t list =
  [
    {
      id = "proto-const";
      family;
      doc =
        "RFC 3448 / paper constants cross-checked against the declared \
         table";
      rationale =
        "The weight vector, equation coefficients and timer floors are \
         normative: a typo'd 0.6 still converges and passes unit tests \
         but changes fairness.  Declaring each constant run once and \
         re-deriving it from the source turns silent drift into a lint \
         failure naming the RFC section.";
      bad = "let weight i = [| 1.0; 1.0; 1.0; 1.0; 0.8; 0.7; 0.4; 0.2 |].(i)";
      good = "let weight i = [| 1.0; 1.0; 1.0; 1.0; 0.8; 0.6; 0.4; 0.2 |].(i)";
      dirs = [ "lib/tfrc"; "lib/sack"; "lib/trunk" ];
      allow = [];
      kind = File_pass run;
    };
  ]
