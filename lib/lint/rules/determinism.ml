(* Determinism / race passes.

   The multicore pool's correctness rests on a static contract: no
   top-level mutable state outside Domain.DLS, no output ordered by
   Hashtbl iteration, no wall-clock reads outside the sim clock, no
   draws from the global Random state and no domains spawned outside
   Engine.Pool. *)

let family = "determinism"

(* Allocators whose result, bound at the top level, is state shared by
   every domain that touches the module. *)
let alloc_head = function
  | [ "ref" ]
  | [ ("Hashtbl" | "Buffer" | "Queue" | "Stack" | "Bytes"); "create" ]
  | [ "Array"; ("make" | "init" | "create_float") ]
  | [ "Atomic"; "make" ] ->
      true
  | _ -> false

let run_top_state (sc : Pass.source_ctx) =
  List.filter_map
    (fun (b : Pass.binding) ->
      if b.is_fun || List.mem "vtp.ambient" b.attrs then None
      else begin
        let dls = ref false and alloc = ref "" in
        Pass.iter_expr
          (fun e ->
            match Pass.strip_stdlib (Pass.ident e) with
            | [ "DLS"; "new_key" ] | [ "Domain"; "DLS"; "new_key" ] ->
                dls := true
            | cs when !alloc = "" && alloc_head cs ->
                alloc := String.concat "." cs
            | _ -> ())
          b.vb.pvb_expr;
        if !alloc = "" || !dls then None
        else
          Some
            (Pass.finding ~rule:"top-level-state" ~path:sc.sc_path
               ~line:b.line
               ~message:
                 (Printf.sprintf
                    "top-level binding '%s' allocates mutable state (%s) \
                     shared across domains; register it through \
                     Domain.DLS.new_key or mark it [@vtp.ambient]"
                    b.name !alloc)
               ~context:b.context)
      end)
    sc.sc_bindings

let starts_with prefix s = String.starts_with ~prefix s

(* Expressions that commit an ordering: consing onto an accumulator,
   assigning one, or printing/serialising directly.  The sink's name
   and its offset in the file. *)
let ordered_sink (e : Parsetree.expression) =
  let at (loc : Location.t) s = Some (loc.loc_start.pos_cnum, s) in
  match (Pass.written_cons e, Pass.ident e) with
  | Some loc, _ -> at loc "::"
  | None, [] -> None
  | None, written -> (
      match Pass.strip_stdlib written with
      | [ ":=" ] -> at e.pexp_loc ":="
      | "Buffer" :: last :: _ when starts_with "add" last ->
          at e.pexp_loc "Buffer.add*"
      | (("Printf" | "Format") as m) :: _ -> at e.pexp_loc m
      | cs ->
          if
            List.exists
              (fun c -> starts_with "output_" c || starts_with "print_" c)
              cs
          then at e.pexp_loc (String.concat "." written)
          else None)

let is_hashtbl_iteration e =
  match Pass.strip_stdlib (Pass.ident e) with
  | [ "Hashtbl"; ("iter" | "fold") ] -> true
  | _ -> false

let run_hashtbl_order (sc : Pass.source_ctx) =
  List.concat_map
    (fun (b : Pass.binding) ->
      let iterations = ref [] in
      if not (List.mem "vtp.unordered" b.attrs) then
        Pass.iter_expr
          (fun e ->
            if is_hashtbl_iteration e then iterations := e :: !iterations)
          b.vb.pvb_expr;
      if !iterations = [] then []
      else begin
        let sorted = ref false and sink = ref None in
        Pass.iter_expr
          (fun e ->
            if List.exists (starts_with "sort") (Pass.ident e) then
              sorted := true;
            match (ordered_sink e, !sink) with
            | Some (o, _), Some (first, _) when o >= first -> ()
            | Some s, _ -> sink := Some s
            | None, _ -> ())
          b.vb.pvb_expr;
        match !sink with
        | Some (_, sink) when not !sorted ->
            List.rev_map
              (fun (e : Parsetree.expression) ->
                Pass.finding ~rule:"hashtbl-order" ~path:sc.sc_path
                  ~line:(Pass.line e.pexp_loc)
                  ~message:
                    (Printf.sprintf
                       "%s feeds an ordered sink (%s) in '%s'; Hashtbl \
                        iteration order is unspecified — sort the keys \
                        first or mark the binding [@vtp.unordered]"
                       (String.concat "." (Pass.ident e))
                       sink b.name)
                  ~context:b.context)
              !iterations
        | _ -> []
      end)
    sc.sc_bindings

let wall_clock e =
  match Pass.strip_stdlib (Pass.ident e) with
  | [ "Unix"; ("gettimeofday" | "time" | "gmtime" | "localtime") ]
  | [ "Sys"; "time" ] ->
      Some
        (String.concat "." (Pass.ident e)
        ^ " reads the wall clock; simulated components must take time from \
           Engine.Sim.now so runs replay identically")
  | _ -> None

(* Any [Random.*] call outside the engine's seeded RNG shim breaks
   experiment reproducibility. *)
let random_call e =
  match Pass.ident e with
  | "Random" :: _ ->
      Some
        "global Random used; draw from Engine.Rng (seeded, splittable) \
         instead"
  | _ -> None

(* [Domain.spawn] outside the engine's pool: ad-hoc domains bypass the
   pool's determinism contract (submission-order collection, bounded
   worker count, every domain joined before results are read). *)
let domain_spawn e =
  match Pass.strip_stdlib (Pass.ident e) with
  | [ "Domain"; "spawn" ] ->
      Some
        "Domain.spawn outside Engine.Pool; fan tasks out with \
         Engine.Pool.map instead"
  | _ -> None

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
      kind = Expr_pass wall_clock;
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
      kind = Expr_pass random_call;
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
      kind = Expr_pass domain_spawn;
    };
  ]
