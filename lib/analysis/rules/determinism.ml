(* Determinism / race passes.

   The multicore pool's correctness rests on a static contract: no
   top-level mutable state outside Domain.DLS, no output ordered by
   Hashtbl iteration, no wall-clock reads outside the sim clock, no
   draws from the global Random state and no domains spawned outside
   Engine.Pool. *)

let family = "determinism"

(* Allocators whose result, bound at the top level, is state shared by
   every domain that touches the module. *)
let alloc_heads =
  [
    "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create";
    "Stack.create"; "Bytes.create"; "Array.make"; "Array.init";
    "Array.create_float"; "Atomic.make";
  ]

let is_dls_key text =
  let cs = Pass.components text in
  List.mem "DLS" cs && Pass.last_component text = "new_key"

let run_top_state (sc : Pass.source_ctx) =
  List.filter_map
    (fun (c : Parser.context) ->
      let b = c.Parser.cx_binding in
      if b.Parser.bfun || List.mem "vtp.ambient" b.Parser.battrs then None
      else begin
        let lo, hi = b.Parser.bbody in
        let dls = ref false and alloc = ref "" in
        for i = lo to hi - 1 do
          let t = sc.Pass.sc_tokens.(i) in
          match t.Lexer.kind with
          | Lexer.Ident ->
              let text = Pass.strip_stdlib t.Lexer.text in
              if is_dls_key text then dls := true;
              if !alloc = "" && List.mem text alloc_heads then alloc := text
          | _ -> ()
        done;
        if !alloc = "" || !dls then None
        else
          Some
            (Pass.finding ~rule:"top-level-state" ~family
               ~path:sc.Pass.sc_path ~line:b.Parser.bline
               ~message:
                 (Printf.sprintf
                    "top-level binding '%s' allocates mutable state (%s) \
                     shared across domains; register it through \
                     Domain.DLS.new_key or mark it [@vtp.ambient]"
                    b.Parser.bname !alloc)
               ~context:(Parser.qualified_name c))
      end)
    sc.Pass.sc_contexts

let is_hashtbl_iteration text =
  let cs = Pass.components text in
  List.mem "Hashtbl" cs
  && match Pass.last_component text with "iter" | "fold" -> true | _ -> false

let starts_with prefix s = String.starts_with ~prefix s

(* Tokens that commit an ordering: consing onto an accumulator,
   assigning one, or printing/serialising directly. *)
let ordered_sink (ts : Lexer.token array) j =
  let t = ts.(j) in
  match t.Lexer.kind with
  | Lexer.Ident ->
      let cs = Pass.components (Pass.strip_stdlib t.Lexer.text) in
      (match cs with
      | "Buffer" :: _ when starts_with "add" (Pass.last_component t.Lexer.text)
        ->
          Some "Buffer.add*"
      | ("Printf" | "Format") :: _ -> Some (List.hd cs)
      | _ ->
          if
            List.exists
              (fun c -> starts_with "output_" c || starts_with "print_" c)
              cs
          then Some t.Lexer.text
          else None)
  | Lexer.Op ->
      if t.Lexer.text = ":=" then Some ":="
      else if t.Lexer.text = "::" && Pass.expr_position ts j then Some "::"
      else None
  | _ -> None

let sortish (ts : Lexer.token array) j =
  match ts.(j).Lexer.kind with
  | Lexer.Ident ->
      List.exists (starts_with "sort") (Pass.components ts.(j).Lexer.text)
  | _ -> false

let run_hashtbl_order (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      if t.Lexer.kind = Lexer.Ident && is_hashtbl_iteration t.Lexer.text then
        match Parser.enclosing sc.Pass.sc_contexts i with
        | None -> ()
        | Some c ->
            let b = c.Parser.cx_binding in
            if List.mem "vtp.unordered" b.Parser.battrs then ()
            else begin
              let lo, hi = b.Parser.bspan in
              let sorted = ref false and sink = ref "" in
              for j = lo to hi - 1 do
                if sortish ts j then sorted := true;
                if !sink = "" then
                  match ordered_sink ts j with
                  | Some s -> sink := s
                  | None -> ()
              done;
              if !sink <> "" && not !sorted then
                out :=
                  Pass.finding ~rule:"hashtbl-order" ~family
                    ~path:sc.Pass.sc_path ~line:t.Lexer.tline
                    ~message:
                      (Printf.sprintf
                         "%s feeds an ordered sink (%s) in '%s'; Hashtbl \
                          iteration order is unspecified — sort the keys \
                          first or mark the binding [@vtp.unordered]"
                         t.Lexer.text !sink b.Parser.bname)
                    ~context:(Parser.qualified_name c)
                  :: !out
            end)
    ts;
  List.rev !out

let clock_calls =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime";
    "Sys.time" ]

let wall_clock _ _ (t : Lexer.token) =
  if
    t.Lexer.kind = Lexer.Ident
    && List.mem (Pass.strip_stdlib t.Lexer.text) clock_calls
  then
    Some
      (t.Lexer.text
      ^ " reads the wall clock; simulated components must take time from \
         Engine.Sim.now so runs replay identically")
  else None

(* Any [Random.*] call outside the engine's seeded RNG shim breaks
   experiment reproducibility. *)
let random_call _ _ (t : Lexer.token) =
  match (t.Lexer.kind, Pass.components t.Lexer.text) with
  | Lexer.Ident, "Random" :: _ ->
      Some
        "global Random used; draw from Engine.Rng (seeded, splittable) \
         instead"
  | _ -> None

(* [Domain.spawn] outside the engine's pool: ad-hoc domains bypass the
   pool's determinism contract (submission-order collection, bounded
   worker count, every domain joined before results are read). *)
let domain_spawn _ _ (t : Lexer.token) =
  if
    t.Lexer.kind = Lexer.Ident
    && String.ends_with ~suffix:"Domain.spawn" t.Lexer.text
  then
    Some
      "Domain.spawn outside Engine.Pool; fan tasks out with \
       Engine.Pool.map instead"
  else None

let passes : Pass.t list =
  [
    {
      id = "top-level-state";
      family;
      doc =
        "top-level ref/Hashtbl/Buffer state not registered through \
         Domain.DLS";
      rationale =
        "A top-level ref or table is one instance shared by every \
         domain the pool spawns; concurrent runs then race on it and \
         the @par-smoke byte-diff goes nondeterministic.  Ambient \
         state must be domain-local (Domain.DLS) or explicitly \
         declared [@vtp.ambient] with a reset discipline.";
      bad = "let scratch = Buffer.create 256";
      good =
        "let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)";
      dirs = [];
      allow = [];
      kind = File_pass run_top_state;
    };
    {
      id = "hashtbl-order";
      family;
      doc = "Hashtbl.iter/fold result escaping into ordered output";
      rationale =
        "Hashtbl iteration order depends on hash seeding and insertion \
         history, so consing or printing from inside iter/fold bakes an \
         unspecified order into reports and traces.  Commutative \
         aggregation (sums, maxima) is fine; ordered sinks need a sort.";
      bad = "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []";
      good =
        "let keys t = List.sort Int.compare (Hashtbl.fold (fun k _ acc \
         -> k :: acc) t [])";
      dirs = [];
      allow = [];
      kind = File_pass run_hashtbl_order;
    };
    {
      id = "wall-clock";
      family;
      doc = "Unix.gettimeofday/Sys.time outside the sim clock";
      rationale =
        "Reading the host clock inside simulated components makes \
         timeouts and traces depend on machine load, breaking replay \
         and the golden-trace corpus.  Only the benchmark harness \
         measures real elapsed time.";
      bad = "let deadline = Unix.gettimeofday () +. rto";
      good = "let deadline = Engine.Sim.now sim +. rto";
      dirs = [];
      allow = [ "bench/" ];
      kind = File_pass (Pass.token_pass ~rule:"wall-clock" ~family wall_clock);
    };
    {
      id = "random-call";
      family;
      doc =
        "Random.* outside lib/engine/rng.ml (experiments must be \
         reproducible from the root seed)";
      rationale =
        "The global Random state is shared, unseeded by default and \
         domain-local in OCaml 5, so any draw outside the engine's \
         splittable RNG makes runs irreproducible and schedule-dependent.";
      bad = "let jitter () = Random.float 0.01";
      good = "let jitter rng = Engine.Rng.float rng 0.01";
      dirs = [];
      allow = [ "lib/engine/rng.ml" ];
      kind =
        File_pass (Pass.token_pass ~rule:"random-call" ~family random_call);
    };
    {
      id = "domain-spawn";
      family;
      doc =
        "Domain.spawn outside lib/engine/pool.ml (all parallelism goes \
         through Engine.Pool.map)";
      rationale =
        "Ad-hoc domains bypass the pool's determinism contract \
         (submission-order collection, bounded worker count, every \
         domain joined before results are read), so results depend on \
         the scheduler.";
      bad = "let d = Domain.spawn (fun () -> run seed)";
      good = "Engine.Pool.map ?jobs run seeds";
      dirs = [];
      allow = [ "lib/engine/pool.ml" ];
      kind =
        File_pass (Pass.token_pass ~rule:"domain-spawn" ~family domain_spawn);
    };
  ]
