(* The analyzer: the let-binding walk, one firing and one
   structurally-similar clean fixture per pass, the pass registry,
   the rendered report line and syntax errors —
   all driven through [Check.run_string] / [Check.run_files] so no files
   need creating. *)

module Pass = Lint.Pass
module Check = Lint.Check

let bindings src = (Check.source_ctx ~path:"lib/x/fixture.ml" src).sc_bindings

let binding_named name src =
  match
    List.find_opt (fun (b : Pass.binding) -> b.Pass.name = name) (bindings src)
  with
  | Some b -> b
  | None -> Alcotest.failf "no binding %S walked out of %S" name src

let names src = List.map (fun (b : Pass.binding) -> b.Pass.name) (bindings src)

let rules fs = List.map (fun (f : Pass.finding) -> f.Pass.rule) fs

let fires rule ~path src = List.mem rule (rules (Check.run_string ~path src))

let check_fires rule ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on %S" rule src)
    true (fires rule ~path src)

let check_clean rule ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s stays quiet on %S" rule src)
    false (fires rule ~path src)

let proto = "lib/tfrc/fixture.ml"

(* ------------------------------------------------------------------ *)
(* The let-binding walk *)

let test_parser_structure () =
  (* nested modules give qualified contexts *)
  let src =
    "module A = struct\n\
    \  module B = struct let x = 1 end\n\
    \  let y = 2\n\
     end\n\
     let z = 3\n"
  in
  Alcotest.(check string) "x sits in A.B" "A.B.x"
    (binding_named "x" src).Pass.context;
  Alcotest.(check string) "y sits in A" "A.y"
    (binding_named "y" src).Pass.context;
  Alcotest.(check string) "z at top" "z" (binding_named "z" src).Pass.context;
  (* functor bodies are still walked *)
  let fsrc = "module F (X : Set.S) = struct let pick s = X.min_elt s end\n" in
  Alcotest.(check string) "functor member" "F.pick"
    (binding_named "pick" fsrc).Pass.context;
  (* a module alias is not a struct: it holds no binding *)
  Alcotest.(check (list string)) "module alias" [ "a" ]
    (names "module M = Map.Make (Int)\nlet a = 1\n")

let test_parser_attributes () =
  let b = binding_named "f" "let[@vtp.hot] f x = x + 1\n" in
  Alcotest.(check (list string)) "prefix attr" [ "vtp.hot" ] b.Pass.attrs;
  Alcotest.(check bool) "f is a function" true b.Pass.is_fun;
  let b = binding_named "g" "let g x = x + 1 [@@vtp.alloc_ok]\nlet h = 2\n" in
  Alcotest.(check (list string))
    "trailing attr" [ "vtp.alloc_ok" ] b.Pass.attrs;
  let b = binding_named "k" "[@@@vtp.hot]\n\nlet k x = x * 2\n" in
  Alcotest.(check bool) "floating attr reaches the binding" true
    (List.mem "vtp.hot" b.Pass.floating);
  let b =
    binding_named "r" "let[@vtp.hot] rec r n = if n = 0 then 1 else r (n - 1)\n"
  in
  Alcotest.(check (list string)) "attr before rec" [ "vtp.hot" ] b.Pass.attrs

let test_parser_blind_spots () =
  (* keywords inside comments and strings are invisible *)
  Alcotest.(check (list string)) "only real bindings" [ "s"; "k" ]
    (names
       "(* let bogus = ref 0 *)\n\
        let s = \"let fake = ref 0\"\n\
        let k x = x\n");
  (* expression-level and-chains stay inside their function *)
  let src = "let f x =\n  let a = ref 0 and b = ref x in\n  !a + !b\n" in
  Alcotest.(check (list string)) "let..and..in is one binding" [ "f" ]
    (names src);
  Alcotest.(check bool) "f is a function" true
    (binding_named "f" src).Pass.is_fun;
  (* top-level rec..and chains split into members, each on its line *)
  let src = "let rec even n = odd (n - 1)\nand odd n = even (n - 1)\n" in
  Alcotest.(check (list string)) "rec/and members" [ "even"; "odd" ]
    (names src);
  Alcotest.(check int) "and member's line" 2 (binding_named "odd" src).Pass.line

let test_parser_bfun () =
  let is_fun name src = (binding_named name src).Pass.is_fun in
  Alcotest.(check bool) "parameters" true (is_fun "f" "let f x = x\n");
  Alcotest.(check bool) "fun body" true (is_fun "g" "let g = fun x -> x\n");
  Alcotest.(check bool) "function body" true
    (is_fun "h" "let h = function [] -> 0 | _ -> 1\n");
  Alcotest.(check bool) "plain value" false (is_fun "v" "let v = 5\n");
  Alcotest.(check bool) "annotated value" false
    (is_fun "c" "let c : int = 5\n");
  (* a unit binding is an effectful statement, not a function *)
  Alcotest.(check bool) "unit pattern" false (is_fun "()" "let () = run ()\n")

(* ------------------------------------------------------------------ *)
(* Determinism family *)

let test_top_level_state () =
  check_fires "top-level-state" ~path:proto "let table = Hashtbl.create 16\n";
  check_fires "top-level-state" ~path:proto "let count = ref 0\n";
  (* the sanctioned forms *)
  check_clean "top-level-state" ~path:proto
    "let table = Domain.DLS.new_key (fun () -> Hashtbl.create 16)\n";
  check_clean "top-level-state" ~path:proto
    "let[@vtp.ambient] hook = ref false\n";
  (* functions allocating per call are not ambient state *)
  check_clean "top-level-state" ~path:proto
    "let make () = Hashtbl.create 16\n";
  (* a local ref inside a function body is not top-level state *)
  check_clean "top-level-state" ~path:proto
    "let f x =\n  let a = ref 0 and b = ref x in\n  !a + !b\n"

let test_hashtbl_order () =
  check_fires "hashtbl-order" ~path:proto
    "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n";
  (* commutative aggregation is fine *)
  check_clean "hashtbl-order" ~path:proto
    "let total t = Hashtbl.fold (fun _ v acc -> acc + v) t 0\n";
  (* a sort downstream discharges the obligation *)
  check_clean "hashtbl-order" ~path:proto
    "let keys t =\n\
    \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n";
  check_clean "hashtbl-order" ~path:proto
    "let[@vtp.unordered] dump t = Hashtbl.iter (fun k _ -> print_int k) t\n"

let test_wall_clock () =
  check_fires "wall-clock" ~path:proto
    "let deadline rto = Unix.gettimeofday () +. rto\n";
  check_fires "wall-clock" ~path:proto "let t0 = Sys.time ()\n";
  check_clean "wall-clock" ~path:proto
    "let deadline sim rto = Engine.Sim.now sim +. rto\n";
  (* the benchmark harness is the one allowed user *)
  check_clean "wall-clock" ~path:"bench/main.ml"
    "let t0 = Unix.gettimeofday ()\n"

let test_random_call () =
  check_fires "random-call" ~path:proto "let x = Random.int 5\n";
  check_fires "random-call" ~path:"bin/tool.ml" "Random.self_init ()\n";
  (* the seeded shim is the one allowed user *)
  check_clean "random-call" ~path:"lib/engine/rng.ml" "let x = Random.int 5\n";
  check_clean "random-call" ~path:proto "let x = Engine.Rng.int rng 5\n"

let test_domain_spawn () =
  check_fires "domain-spawn" ~path:proto "let d = Domain.spawn work\n";
  check_fires "domain-spawn" ~path:"bin/tool.ml"
    "ignore (Stdlib.Domain.spawn f)\n";
  (* the pool is the one allowed user *)
  check_clean "domain-spawn" ~path:"lib/engine/pool.ml"
    "let d = Domain.spawn work\n";
  check_clean "domain-spawn" ~path:proto
    "let x = Engine.Pool.map run seeds\n";
  (* other Domain.* uses (DLS, join) stay legal everywhere *)
  check_clean "domain-spawn" ~path:proto
    "let k = Domain.DLS.new_key (fun () -> ref None)\n";
  check_clean "domain-spawn" ~path:proto "Domain.join d\n"

(* ------------------------------------------------------------------ *)
(* Hot-path family *)

let test_hot_closure () =
  check_fires "hot-closure" ~path:proto
    "let[@vtp.hot] f t = List.iter (fun x -> use x) t.xs\n";
  check_fires "hot-closure" ~path:proto
    "let[@vtp.hot] g t =\n  let rec walk i = if i = 0 then 0 else walk (i - 1) in\n  walk t.n\n";
  (* same body, not marked hot *)
  check_clean "hot-closure" ~path:proto
    "let f t = List.iter (fun x -> use x) t.xs\n";
  (* the binding's own leading fun IS the function *)
  check_clean "hot-closure" ~path:proto "let[@vtp.hot] h = fun x -> x + 1\n";
  (* a local scalar is not a nested function *)
  check_clean "hot-closure" ~path:proto
    "let[@vtp.hot] k t =\n  let cap = t.n * 2 in\n  cap + 1\n";
  check_clean "hot-closure" ~path:proto
    "let[@vtp.alloc_ok] [@vtp.hot] e t = List.iter (fun x -> use x) t.xs\n"

let test_hot_list () =
  check_fires "hot-list" ~path:proto
    "let[@vtp.hot] f t = t.acc <- t.x :: t.acc\n";
  check_fires "hot-list" ~path:proto
    "let[@vtp.hot] g xs = List.map succ xs\n";
  check_fires "hot-list" ~path:proto "let[@vtp.hot] h x = [ x; x + 1 ]\n";
  (* match patterns and array indexing are not list construction *)
  check_clean "hot-list" ~path:proto
    "let[@vtp.hot] len = function [] -> 0 | _ :: _ -> 1\n";
  check_clean "hot-list" ~path:proto "let[@vtp.hot] nth t i = t.arr.(i)\n";
  check_clean "hot-list" ~path:proto "let f t = t.acc <- t.x :: t.acc\n"

let test_hot_box () =
  check_fires "hot-box" ~path:proto
    "let[@vtp.hot] peek t = if t.n = 0 then None else Some t.arr.(0)\n";
  check_fires "hot-box" ~path:proto "let[@vtp.hot] cell () = ref 0\n";
  (* destructuring an option is free *)
  check_clean "hot-box" ~path:proto
    "let[@vtp.hot] get t = match t.o with Some x -> x | None -> 0\n";
  check_clean "hot-box" ~path:proto
    "let[@vtp.alloc_ok] peek t = if t.n = 0 then None else Some t.arr.(0)\n";
  (* floating [@@@vtp.hot] marks every function in the structure *)
  check_fires "hot-box" ~path:proto "[@@@vtp.hot]\nlet wrap x = Some x\n";
  check_clean "hot-box" ~path:proto "let wrap x = Some x\n";
  (* a pattern or a type is not an allocation *)
  check_clean "hot-box" ~path:proto
    "let[@vtp.hot] f t = match t with (Some x, _) -> x | _ -> 0\n";
  check_clean "hot-box" ~path:proto "let[@vtp.hot] f x = (x : int ref) := 1\n"

let test_hot_format () =
  check_fires "hot-format" ~path:proto
    "let[@vtp.hot] emit t = log (Printf.sprintf \"seq=%d\" t.seq)\n";
  check_fires "hot-format" ~path:proto
    "let[@vtp.hot] name t = string_of_int t.id ^ \"x\"\n";
  check_clean "hot-format" ~path:proto
    "let emit t = log (Printf.sprintf \"seq=%d\" t.seq)\n";
  check_clean "hot-format" ~path:proto
    "let[@vtp.hot] record t = Trace.Sink.emit t.sink t.ev\n"

(* ------------------------------------------------------------------ *)
(* Protocol constants *)

let eq_path = "lib/tfrc/equation.ml"

(* A miniature equation.ml carrying both declared runs for that file:
   the rto coefficients [1; 4] and the throughput coefficients
   [2; 3; 3; 8; 3; 1; 32].  [last] parameterises the final coefficient
   so the drift case differs in exactly one literal. *)
let eq_src last =
  "let rate ~s ~r ~p ?(b = 1.0) ?t_rto () =\n\
  \  let t_rto = match t_rto with Some t -> t | None -> 4.0 *. r in\n\
  \  let root1 = sqrt (2.0 *. b *. p /. 3.0) in\n\
  \  let root2 = sqrt (3.0 *. b *. p /. 8.0) in\n\
  \  float_of_int s\n\
  \  /. ((r *. root1) +. (t_rto *. 3.0 *. root2 *. p *. (1.0 +. (" ^ last
  ^ " *. p *. p))))\n"

let eq_good = eq_src "32.0"

let proto_const_findings src =
  List.filter
    (fun (f : Pass.finding) -> f.Pass.rule = "proto-const")
    (Check.run_string ~path:eq_path src)

let test_proto_const () =
  Alcotest.(check int) "conforming constants pass" 0
    (List.length (proto_const_findings eq_good));
  (* a typo'd coefficient is caught and names the authority *)
  let drifted = eq_src "31.0" in
  (match proto_const_findings drifted with
  | [ f ] ->
      Alcotest.(check string) "drift names the constant id"
        "rfc3448.throughput-eq" f.Pass.context
  | fs -> Alcotest.failf "expected 1 drift finding, got %d" (List.length fs));
  (* a refactor that loses the anchor binding is caught too *)
  (match proto_const_findings "let other = 1.0\n" with
  | [ _; _ ] -> ()
  | fs ->
      Alcotest.failf "expected 2 anchor-missing findings, got %d"
        (List.length fs));
  (* out of scope: the same drift in an unscoped directory is silent *)
  Alcotest.(check bool) "scoped to lib/tfrc + lib/sack" false
    (fires "proto-const" ~path:"lib/netsim/equation.ml" drifted)

(* ------------------------------------------------------------------ *)
(* API hygiene *)

let test_test_only_escape () =
  check_fires "test-only-escape" ~path:"lib/core/loss.ml"
    "let () = Sack.Rcv_tracker.test_only_skip_dup_check := true\n";
  (* tests are the intended users *)
  check_clean "test-only-escape" ~path:"test/test_fuzz.ml"
    "let () = Sack.Rcv_tracker.test_only_skip_dup_check := true\n";
  (* defining the hook is fine; only qualified cross-module reaches fire *)
  check_clean "test-only-escape" ~path:"lib/sack/rcv_tracker.ml"
    "let[@vtp.ambient] test_only_skip_dup_check = ref false\n"

let user_ml = "lib/core/user.ml"

let exports_findings mli =
  let files =
    [
      ("lib/engine/wheel.mli", mli);
      (user_ml, "let go p ev = Engine.Wheel.bucket_push p 3 ev\n");
    ]
  in
  List.filter
    (fun (f : Pass.finding) -> f.Pass.rule = "undeclared-export")
    (Check.run_files files)

let test_undeclared_export () =
  (match exports_findings "val add : t -> unit\n" with
  | [ f ] ->
      Alcotest.(check string) "finding lands in the referencing file"
        user_ml f.Pass.path
  | fs ->
      Alcotest.failf "expected 1 undeclared-export finding, got %d"
        (List.length fs));
  Alcotest.(check int) "declared name passes" 0
    (List.length
       (exports_findings "val bucket_push : t -> int -> Event.t -> unit\n"));
  (* an [include] makes the surface non-evident: stay silent *)
  Alcotest.(check int) "include suppresses the check" 0
    (List.length (exports_findings "include module type of Impl\n"));
  (* every wrapped library root is mapped, Trunk and Lint included *)
  let undeclared =
    List.filter
      (fun (f : Pass.finding) -> f.Pass.rule = "undeclared-export")
      (Check.run_files
         [
           ("lib/sack/scoreboard.mli", "val on_feedback : int\n");
           ("lib/trunk/mux.mli", "val pack : int\n");
           ("lib/lint/check.mli", "val passes : int\n");
           ( "lib/fuzz/x.ml",
             "let a () = Sack.Scoreboard.bogus 1\n\
              let b () = Trunk.Mux.bogus 2\n\
              let c () = Lint.Check.bogus 3\n" );
         ])
  in
  Alcotest.(check (list int)) "Sack, Trunk and Lint references all checked"
    [ 1; 2; 3 ]
    (List.map (fun (f : Pass.finding) -> f.Pass.line) undeclared)

let test_poly_compare () =
  check_fires "poly-compare" ~path:proto "let c = compare a b\n";
  check_fires "poly-compare" ~path:proto "List.sort Stdlib.compare xs\n";
  check_clean "poly-compare" ~path:proto "let c = Int.compare a b\n";
  (* definitions and labels are exempt *)
  check_clean "poly-compare" ~path:proto "let compare a b = Int.compare a b\n";
  check_clean "poly-compare" ~path:proto "sort ~compare:Int.compare xs\n";
  (* out of scope: the rule only polices protocol directories *)
  check_clean "poly-compare" ~path:"lib/workload/media.ml" "let c = compare a b\n"

let test_float_eq () =
  check_fires "float-eq" ~path:proto "let f x = if x = 0.0 then 1 else 2\n";
  check_fires "float-eq" ~path:proto "let g a = a <> 1.0\n";
  (* whatever the left operand: an application, a dereference *)
  check_fires "float-eq" ~path:proto "let f g x = if g x = 0.0 then 1 else 2\n";
  check_fires "float-eq" ~path:proto "let f d = if !d = 0.0 then 1 else 2\n";
  (* binders and optional-argument defaults are not comparisons *)
  check_clean "float-eq" ~path:proto "let x = 1.0\n";
  check_clean "float-eq" ~path:proto "let f ?(eps = 1e-9) () = eps\n";
  check_clean "float-eq" ~path:proto "let rate ~s ~r () = 8.0 *. s /. r\n";
  check_clean "float-eq" ~path:proto "let f x = Float.equal x 0.0\n"

let test_obj_magic () =
  check_fires "obj-magic" ~path:"lib/workload/media.ml" "let y = Obj.magic x\n";
  check_clean "obj-magic" ~path:"lib/workload/media.ml" "let y = Obj.repr x\n"

let test_assert_false () =
  check_fires "assert-false" ~path:proto "let f () = assert false\n";
  check_clean "assert-false" ~path:proto "let f x = assert (x > 0)\n"

let test_failwith_empty () =
  check_fires "failwith-empty" ~path:proto "let f () = failwith \"\"\n";
  check_clean "failwith-empty" ~path:proto "let f () = failwith \"boom\"\n"

let test_missing_mli () =
  let has files =
    List.mem "missing-mli"
      (rules (Check.run_files (List.map (fun f -> (f, "")) files)))
  in
  Alcotest.(check bool) "lib .ml without .mli" true (has [ "lib/foo/a.ml" ]);
  Alcotest.(check bool)
    "paired .mli satisfies" false
    (has [ "lib/foo/a.ml"; "lib/foo/a.mli" ]);
  Alcotest.(check bool) "executables exempt" false (has [ "bin/b.ml" ])

(* ------------------------------------------------------------------ *)
(* What the parse tree does not hold *)

let assert_false_findings src =
  List.filter
    (fun (f : Pass.finding) -> f.Pass.rule = "assert-false")
    (Check.run_string ~path:proto src)

let test_parse_tree_blind_spots () =
  (* Findings must never come from comments or string literals. *)
  check_clean "assert-false" ~path:proto "(* assert false *) let x = 1\n";
  check_clean "assert-false" ~path:proto "let s = \"assert false\"\n";
  check_clean "assert-false" ~path:proto "let s = {|assert false|}\n";
  check_clean "random-call" ~path:proto
    "let t = {x| Random.int 3 ; Obj.magic |x}\n";
  check_clean "obj-magic" ~path:proto
    "let t = {x| Random.int 3 ; Obj.magic |x}\n";
  check_clean "random-call" ~path:proto
    "(* nested (* Random.int *) with a \"*)\" string *) let x = 1\n";
  (* ... and line numbers survive multi-line comments *)
  match
    assert_false_findings "(* one\n   two *)\nlet f () = assert false\n"
  with
  | [ f ] -> Alcotest.(check int) "line after comment" 3 f.Pass.line
  | _ -> Alcotest.fail "expected exactly one finding"

(* ------------------------------------------------------------------ *)
(* Registry + report *)

let test_registry () =
  let ids = List.map (fun (p : Pass.t) -> p.Pass.id) Check.passes in
  Alcotest.(check int) "18 passes" 18 (List.length ids);
  Alcotest.(check int) "ids unique" 18
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun (p : Pass.t) ->
      List.iter
        (fun (field, v) ->
          Alcotest.(check bool) (p.Pass.id ^ " has a " ^ field) true (v <> ""))
        [
          ("doc", p.Pass.doc);
          ("rationale", p.Pass.rationale);
          ("bad", p.Pass.bad);
          ("good", p.Pass.good);
        ];
      Alcotest.(check bool)
        (p.Pass.id ^ " resolves")
        true
        (match Check.find_pass p.Pass.id with
        | Some q -> q.Pass.id = p.Pass.id
        | None -> false))
    Check.passes

let test_rendered_line () =
  match assert_false_findings "let f () = assert false\n" with
  | [ f ] ->
      Alcotest.(check string) "machine-readable rendering"
        "lib/tfrc/fixture.ml:1: [assert-false] error: bare 'assert false'; \
         raise an informative error (invalid_arg/failwith with a message) \
         instead"
        (Format.asprintf "%a" Pass.pp_finding f)
  | _ -> Alcotest.fail "expected exactly one finding"

(* ------------------------------------------------------------------ *)
(* Files the OCaml parser rejects *)

let test_syntax_error () =
  let files =
    [
      ("lib/core/a.ml", "let fine x = x + 1\n");
      ("lib/core/b.ml", "let f x = (x");
      ("lib/core/b.mli", "val f : int -> int\n");
    ]
  in
  match Check.run_files files with
  | exception Pass.Syntax_error { path; line; _ } ->
      Alcotest.(check string) "names the file" "lib/core/b.ml" path;
      Alcotest.(check int) "and the line" 1 line
  | _ -> Alcotest.fail "an unparsable file must raise Syntax_error"

(* dune runs this runner in _build/default/test/lint, beside the copies
   of the source trees its stanza depends on; run by hand, it starts at
   the root.  Either way the paths it reads are relative to the root. *)
let in_tree f =
  let cwd = Sys.getcwd () in
  Sys.chdir (if Sys.file_exists "../../test/lint/dune" then "../.." else ".");
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) f

let test_tree_is_clean () =
  (* The repository's own sources must stay analyzer-clean. *)
  let fs = in_tree (fun () -> Check.run_tree ~roots:[ "lib"; "bin" ]) in
  List.iter
    (fun (f : Pass.finding) ->
      Printf.eprintf "unexpected: %s:%d %s %s\n" f.Pass.path f.Pass.line
        f.Pass.rule f.Pass.message)
    fs;
  Alcotest.(check int) "no structural findings in tree" 0 (List.length fs)

(* ------------------------------------------------------------------ *)
(* Every export has a caller *)

let test_dead_export_resolution () =
  let files =
    [
      ("lib/x/dune", "(library\n (name xlib))\n");
      ( "lib/x/a.mli",
        "val by_path : int\nval by_alias : int\nval by_open : int\n\
         val by_let_open : int\nval by_scope : int\nval by_include : int\n\
         val by_sibling : int\nval own_only : int\nval nowhere : int\n" );
      ( "lib/x/a.ml",
        "let by_path = 1 let by_alias = 2 let by_open = 3 let by_let_open = 4\n\
         let by_scope = 5 let by_include = 6 let by_sibling = 7\n\
         let own_only = 8 let nowhere = own_only\n" );
      ("lib/x/b.mli", "val f : int\nval g : int\n");
      ("lib/x/b.ml", "let f = A.by_sibling let g = 0\n");
      ("test/inc.ml", "include Xlib.A\n");
      ( "test/t.ml",
        "module M = Xlib.A\n\
         module F (X : sig val f : int end) = struct let v = X.f end\n\
         module Applied = F (Xlib.B)\n\
         let a = Xlib.A.by_path + M.by_alias\n\
         let b = let open Xlib.A in by_let_open\n\
         let c = Xlib.A.(by_scope) + Inc.by_include\n\
         open Xlib\n\
         open A\n\
         let d = by_open\n" );
    ]
  in
  Alcotest.(check (list string))
    "only the exports no other file names"
    [ "lib/x/a.mli: own_only"; "lib/x/a.mli: nowhere" ]
    (Callers.dead_exports files)

let test_every_export_has_a_caller () =
  let files =
    in_tree (fun () ->
        Callers.read_tree
          ~roots:[ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]
          ~skip:[ "test/lint/unparsable"; "test/lint/offending" ])
  in
  Alcotest.(check (list string))
    "lib/ exports that no other file names" []
    (Callers.dead_exports files)

(* ------------------------------------------------------------------ *)
(* Every exported record field is read *)

let test_every_field_is_read () =
  (* What counts as a read, on a tree small enough to name every case. *)
  let files =
    [
      ( "lib/x/a.mli",
        "type t = { accessed : int; bound : int; tested : int; \
         wildcard : int; built : int; copied : int; written : int }\n\
         type e = Ev of { inline : int } | Other of { unseen : int }\n" );
      ( "lib/x/a.ml",
        "let f r = r.accessed\n\
         let g { bound; tested = 0; wildcard = _; _ } = bound\n\
         let h r = { r with copied = 1 }\n\
         let i r = r.written <- 2\n\
         let j = function Ev { inline } -> inline | Other _ -> 0\n" );
      ( "test/t.ml",
        "let k = { accessed = 1; bound = 2; tested = 3; wildcard = 4; \
         built = 5; copied = 6; written = 7 }\n" );
    ]
  in
  Alcotest.(check (list string))
    "only the labels nothing reads"
    [
      "lib/x/a.mli: t.wildcard"; "lib/x/a.mli: t.built";
      "lib/x/a.mli: t.copied"; "lib/x/a.mli: t.written";
      "lib/x/a.mli: e.unseen";
    ]
    (Callers.unread_fields files);
  let files =
    in_tree (fun () ->
        Callers.read_tree
          ~roots:[ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]
          ~skip:[ "test/lint/unparsable"; "test/lint/offending" ])
  in
  Alcotest.(check (list string))
    "lib/ record fields that nothing reads" []
    (Callers.unread_fields files)

let suite =
  [
    ("parser structure", `Quick, test_parser_structure);
    ("parser attributes", `Quick, test_parser_attributes);
    ("parser blind spots", `Quick, test_parser_blind_spots);
    ("parser bfun", `Quick, test_parser_bfun);
    ("top-level-state", `Quick, test_top_level_state);
    ("hashtbl-order", `Quick, test_hashtbl_order);
    ("wall-clock", `Quick, test_wall_clock);
    ("random-call", `Quick, test_random_call);
    ("domain-spawn", `Quick, test_domain_spawn);
    ("hot-closure", `Quick, test_hot_closure);
    ("hot-list", `Quick, test_hot_list);
    ("hot-box", `Quick, test_hot_box);
    ("hot-format", `Quick, test_hot_format);
    ("proto-const", `Quick, test_proto_const);
    ("test-only-escape", `Quick, test_test_only_escape);
    ("undeclared-export", `Quick, test_undeclared_export);
    ("poly-compare", `Quick, test_poly_compare);
    ("float-eq", `Quick, test_float_eq);
    ("obj-magic", `Quick, test_obj_magic);
    ("assert-false", `Quick, test_assert_false);
    ("failwith-empty", `Quick, test_failwith_empty);
    ("missing-mli", `Quick, test_missing_mli);
    ("parse-tree blind spots", `Quick, test_parse_tree_blind_spots);
    ("registry", `Quick, test_registry);
    ("rendered line", `Quick, test_rendered_line);
    ("syntax error", `Quick, test_syntax_error);
    ("tree is clean", `Quick, test_tree_is_clean);
    ("dead-export resolution", `Quick, test_dead_export_resolution);
    ("every export has a caller", `Quick, test_every_export_has_a_caller);
    ("every exported record field is read", `Quick, test_every_field_is_read);
  ]

(* The suite keeps the name it had in the main runner, so its test ids
   stay stable. *)
let () = Alcotest.run "lint" [ ("analysis.check", suite) ]
