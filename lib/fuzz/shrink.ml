(* Greedy scenario shrinking: try a fixed list of simplifications, keep
   any edit under which the scenario still fails, and repeat until no
   candidate makes progress (or the execution budget runs out).  The
   candidates only ever simplify (fewer flows, fewer faults, shorter
   runs), so the loop terminates. *)

type outcome = {
  shrunk : Scenario.t;
  executions : int;  (** scenario runs spent shrinking *)
  steps : int;  (** accepted simplifications *)
}

let set_mangle (sc : Scenario.t) f =
  let m = f sc.Scenario.mangle in
  { sc with Scenario.mangle = m }

(* Each candidate returns [None] when it would not change the
   scenario. *)
let candidates : (Scenario.t -> Scenario.t option) list =
  [
    (fun sc ->
      match sc.Scenario.shape with
      | Scenario.Dumbbell 1 -> None
      | _ -> Some { sc with Scenario.shape = Scenario.Dumbbell 1 });
    (fun sc ->
      match sc.Scenario.shape with
      | Scenario.Dumbbell n when n > 1 ->
          Some { sc with Scenario.shape = Scenario.Dumbbell (n - 1) }
      | _ -> None);
    (fun sc ->
      if sc.Scenario.background then
        Some { sc with Scenario.background = false }
      else None);
    (* Mobility: first try fewer migrations, then none at all (the
       scenario still runs over its mobile topology, so path parameters
       stay fixed while the schedule simplifies). *)
    (fun sc ->
      match sc.Scenario.handover with
      | Some h when List.length h.Scenario.ho_schedule > 1 ->
          Some
            {
              sc with
              Scenario.handover =
                Some
                  {
                    h with
                    Scenario.ho_schedule =
                      [ List.hd h.Scenario.ho_schedule ];
                  };
            }
      | _ -> None);
    (fun sc ->
      match sc.Scenario.handover with
      | Some _ -> Some { sc with Scenario.handover = None }
      | None -> None);
    (* Trunking: first halve the user population (10 is the band's
       floor), then drop the trunk entirely — the scenario then runs
       its plain greedy workload. *)
    (fun sc ->
      match sc.Scenario.trunk with
      | Some tr when tr.Scenario.tr_users > 10 ->
          Some
            {
              sc with
              Scenario.trunk =
                Some
                  {
                    tr with
                    Scenario.tr_users =
                      Stdlib.max 10 (tr.Scenario.tr_users / 2);
                  };
            }
      | _ -> None);
    (fun sc ->
      match sc.Scenario.trunk with
      | Some _ -> Some { sc with Scenario.trunk = None }
      | None -> None);
    (fun sc ->
      if sc.Scenario.red then Some { sc with Scenario.red = false } else None);
    (fun sc ->
      match sc.Scenario.loss with
      | Scenario.Clean -> None
      | _ -> Some { sc with Scenario.loss = Scenario.Clean });
    (fun sc ->
      if sc.Scenario.mangle_reverse then
        Some { sc with Scenario.mangle_reverse = false }
      else None);
    (fun sc ->
      if sc.Scenario.mangle.Netsim.Mangler.p_reorder > 0.0 then
        Some
          (set_mangle sc (fun m -> { m with Netsim.Mangler.p_reorder = 0.0 }))
      else None);
    (fun sc ->
      if sc.Scenario.mangle.Netsim.Mangler.p_duplicate > 0.0 then
        Some
          (set_mangle sc (fun m ->
               { m with Netsim.Mangler.p_duplicate = 0.0 }))
      else None);
    (fun sc ->
      if sc.Scenario.mangle.Netsim.Mangler.p_corrupt > 0.0 then
        Some
          (set_mangle sc (fun m -> { m with Netsim.Mangler.p_corrupt = 0.0 }))
      else None);
    (fun sc ->
      if sc.Scenario.mangle.Netsim.Mangler.reorder_max_hold > 1 then
        Some
          (set_mangle sc (fun m -> { m with Netsim.Mangler.reorder_max_hold = 1 }))
      else None);
    (fun sc ->
      match sc.Scenario.workload with
      | Scenario.Greedy -> None
      | _ -> Some { sc with Scenario.workload = Scenario.Greedy });
    (fun sc ->
      if sc.Scenario.duration > 2.0 then
        Some
          {
            sc with
            Scenario.duration = Float.max 2.0 (sc.Scenario.duration /. 2.0);
          }
      else None);
    (fun sc ->
      if sc.Scenario.buffer_pkts <> 30 then
        Some { sc with Scenario.buffer_pkts = 30 }
      else None);
    (fun sc ->
      if not (Float.equal sc.Scenario.rate_mbps 4.0) then
        Some { sc with Scenario.rate_mbps = 4.0 }
      else None);
    (fun sc ->
      if not (Float.equal sc.Scenario.delay_ms 10.0) then
        Some { sc with Scenario.delay_ms = 10.0 }
      else None);
  ]

(* Scenario runs one shrink may spend. *)
let budget = 60

let shrink ~still_fails scenario =
  let executions = ref 0 in
  let steps = ref 0 in
  let try_one sc candidate =
    match candidate sc with
    | None -> None
    | Some sc' ->
        if !executions >= budget then None
        else begin
          incr executions;
          if still_fails sc' then Some sc' else None
        end
  in
  let rec fixpoint sc =
    let progress =
      List.fold_left
        (fun acc candidate ->
          match acc with
          | Some _ -> acc
          | None -> try_one sc candidate)
        None candidates
    in
    match progress with
    | Some sc' ->
        incr steps;
        if !executions >= budget then sc' else fixpoint sc'
    | None -> sc
  in
  let shrunk = fixpoint scenario in
  { shrunk; executions = !executions; steps = !steps }
