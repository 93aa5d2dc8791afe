(* API hygiene passes.

   Expression rules: polymorphic compare and float-literal equality in
   protocol code, Obj.magic, bare [assert false] and [failwith ""] —
   each judged on one expression, without the item structure.

   test-only-escape: [test_only_*] hooks are deliberate-bug levers for
   the fuzz harness's negative tests; any qualified reference outside
   test/ is production code reaching for a sabotage switch.

   missing-mli: every library module publishes an interface.

   undeclared-export: a type-check-independent cross-check that values
   referenced as [Lib.Module.value] from another library are declared
   in [lib/<dir>/module.mli].  On a compiling tree this is vacuous by
   construction — its value is on in-progress trees that parse but do
   not yet type-check, where the analyzer (unlike the compiler) still
   runs. *)

let family = "api-hygiene"

(* Bare [compare] / [Stdlib.compare]: the polymorphic structural compare
   raises on functional values, is wrong on floats (nan) and silently
   depends on record field order — protocol code must use typed
   comparators (Int.compare, Float.compare, Serial.compare, ...).
   Definitions, labels and field declarations are not expressions. *)
let poly_compare e =
  match Pass.ident e with
  | [ ("Stdlib" | "Poly"); "compare" ] as cs ->
      Some
        (String.concat "." cs
        ^ " is polymorphic; use a typed comparator (Int.compare, \
           Float.compare, Serial.compare, ...)")
  | [ "compare" ] -> Some "bare polymorphic compare; use a typed comparator"
  | _ -> None

(* [=] / [<>] applied to a float literal. *)
let float_eq (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply (f, args)
    when List.exists
           (fun (_, (a : Parsetree.expression)) ->
             match a.pexp_desc with
             | Pexp_constant (Pconst_float _) -> true
             | _ -> false)
           args -> (
      match Pass.strip_stdlib (Pass.ident f) with
      | [ "=" ] ->
          Some
            "polymorphic = on a float; use Float.equal (or an epsilon \
             comparison)"
      | [ "<>" ] ->
          Some "polymorphic <> on a float; use explicit Float comparison"
      | _ -> None)
  | _ -> None

let obj_magic e =
  match Pass.strip_stdlib (Pass.ident e) with
  | [ "Obj"; "magic" ] -> Some "Obj.magic defeats the type system"
  | _ -> None

let assert_false (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      Some
        "bare 'assert false'; raise an informative error (invalid_arg/failwith \
         with a message) instead"
  | _ -> None

let failwith_empty (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply
      (f, [ (_, { pexp_desc = Pexp_constant (Pconst_string ("", _, _)); _ }) ])
    when Pass.strip_stdlib (Pass.ident f) = [ "failwith" ] ->
      Some "failwith with an empty message"
  | _ -> None

let test_only e =
  match Pass.ident e with
  | _ :: (_ :: _ as rest) as cs
    when List.exists (String.starts_with ~prefix:"test_only_") rest ->
      Some
        (String.concat "." cs
        ^ " is a test-only sabotage hook; production code must never \
           reference it (tests under test/ are exempt)")
  | _ -> None

(* "lib/" may be the start of a relative path or a component of an
   absolute one. *)
let in_lib f =
  String.starts_with ~prefix:"lib/" f || Pass.contains_sub ~sub:"/lib/" f

let run_missing_mli files =
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && in_lib f
        && not (List.mem (f ^ "i") files)
      then
        Some
          (Pass.finding ~rule:"missing-mli" ~path:f ~line:1
             ~message:"library module has no .mli interface" ~context:"")
      else None)
    files

(* Wrapped-library roots: toplevel module name -> source directory. *)
let libmap =
  [
    ("Engine", "lib/engine"); ("Packet", "lib/packet");
    ("Netsim", "lib/netsim"); ("Tfrc", "lib/tfrc"); ("Sack", "lib/sack");
    ("Tcp", "lib/tcp"); ("Qtp", "lib/core"); ("Stats", "lib/stats");
    ("Trace", "lib/trace"); ("Analysis", "lib/analysis"); ("Lint", "lib/lint");
    ("Fuzz", "lib/fuzz"); ("Workload", "lib/workload");
    ("Experiments", "lib/experiments"); ("Trunk", "lib/trunk");
  ]

let lower_start s =
  s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

(* The values one .mli declares at its top level; None when it uses
   [include] (the surface is then not syntactically evident).  An .mli
   outside the scan is not checked either. *)
let declared (sg : Parsetree.signature) =
  if
    List.exists
      (fun (i : Parsetree.signature_item) ->
        match i.psig_desc with Psig_include _ -> true | _ -> false)
      sg
  then None
  else
    Some
      (List.filter_map
         (fun (i : Parsetree.signature_item) ->
           match i.psig_desc with
           | Psig_value vd -> Some vd.pval_name.txt
           | _ -> None)
         sg)

let run_exports (sc : Pass.source_ctx) =
  let seen = Hashtbl.create 8 and out = ref [] in
  Pass.iter_exprs sc (fun _ e ->
      match Pass.ident e with
      | [ c0; c1; value ] as cs when lower_start value -> (
          let text = String.concat "." cs in
          match List.assoc_opt c0 libmap with
          | Some libdir
            when (not (Pass.contains_sub ~sub:libdir sc.sc_path))
                 && not (Hashtbl.mem seen text) -> (
              Hashtbl.replace seen text ();
              let mli = libdir ^ "/" ^ String.uncapitalize_ascii c1 ^ ".mli" in
              match Option.bind (sc.sc_interface mli) declared with
              | Some names when not (List.mem value names) ->
                  out :=
                    Pass.finding ~rule:"undeclared-export"
                      ~path:sc.sc_path ~line:(Pass.line e.pexp_loc)
                      ~message:
                        (Printf.sprintf
                           "'%s' is referenced cross-library but '%s' does \
                            not declare '%s'; export it (or stop reaching \
                            into the internals)"
                           text mli value)
                      ~context:text
                    :: !out
              | _ -> ())
          | _ -> ())
      | _ -> ());
  List.rev !out

let protocol_dirs =
  [ "lib/tfrc"; "lib/sack"; "lib/core"; "lib/fuzz"; "lib/trace" ]

let passes : Pass.t list =
  [
    {
      id = "test-only-escape";
      family;
      doc = "test_only_* hooks referenced outside test/";
      rationale =
        "test_only_* switches deliberately break an invariant so the \
         fuzzer's oracles can prove they would catch the breakage; a \
         production reference arms a sabotage lever in shipping code.";
      bad = "if Sack.Rcv_tracker.test_only_skip_dup_check := true";
      good = "(* only test/test_fuzz.ml flips the hook, inside a Fun.protect reset *)";
      dirs = [];
      allow = [ "test/" ];
      kind = Expr_pass test_only;
    };
    {
      id = "undeclared-export";
      family;
      doc =
        "Lib.Module.value referenced cross-library but absent from the \
         module's .mli";
      rationale =
        "A value used across library boundaries without an interface \
         declaration couples downstream code to internals; the compiler \
         catches this only once everything compiles, the analyzer \
         catches it on any tree that parses.";
      bad = "Engine.Wheel.bucket_push pool.wheel id ev (* not in wheel.mli *)";
      good = "val bucket_push : t -> int -> Event.t -> unit (* declared in wheel.mli *)";
      dirs = [];
      allow = [];
      kind = File_pass run_exports;
    };
    {
      id = "poly-compare";
      family;
      doc =
        "bare compare/Stdlib.compare in protocol code (floats and \
         protocol records need typed comparators)";
      rationale =
        "Polymorphic compare raises on functional values, orders nan \
         inconsistently and silently depends on record field order, so \
         protocol state comparisons drift when a type is refactored.";
      bad = "let newer a b = compare a.seq b.seq > 0";
      good = "let newer a b = Serial.compare a.seq b.seq > 0";
      dirs = protocol_dirs;
      allow = [];
      kind = Expr_pass poly_compare;
    };
    {
      id = "float-eq";
      family;
      doc = "polymorphic =/<> applied to a float literal";
      rationale =
        "Structural =/<> on floats is exact bit equality through the \
         polymorphic comparator: nan <> nan surprises, and rates that \
         differ by one ulp take the wrong branch silently.";
      bad = "if rtt = 0.0 then init_window t";
      good = "if Float.equal rtt 0.0 then init_window t";
      dirs = protocol_dirs @ [ "lib/stats" ];
      allow = [];
      kind = Expr_pass float_eq;
    };
    {
      id = "obj-magic";
      family;
      doc = "Obj.magic anywhere";
      rationale =
        "Obj.magic defeats the type system; a representation change \
         anywhere upstream becomes a segfault at a distance.";
      bad = "let id = Obj.magic handle";
      good = "let id = Handle.to_int handle";
      dirs = [];
      allow = [];
      kind = Expr_pass obj_magic;
    };
    {
      id = "assert-false";
      family;
      doc = "bare 'assert false' without an informative message";
      rationale =
        "assert false crashes with no context and disappears under \
         -noassert; unreachable branches should raise an informative, \
         always-on error.";
      bad = "| Unknown -> assert false";
      good = "| Unknown -> invalid_arg \"Frame.decode: unknown kind\"";
      dirs = [];
      allow = [];
      kind = Expr_pass assert_false;
    };
    {
      id = "failwith-empty";
      family;
      doc = "failwith \"\" carries no diagnostic";
      rationale =
        "An empty Failure message turns a precise protocol violation \
         into an unactionable stack trace.";
      bad = "if n < 0 then failwith \"\"";
      good = "if n < 0 then failwith \"Ring.push: negative length\"";
      dirs = [];
      allow = [];
      kind = Expr_pass failwith_empty;
    };
    {
      id = "missing-mli";
      family;
      doc = "library .ml without a sibling .mli";
      rationale =
        "Interface-less library modules export every helper, so \
         internal refactors break downstream code and the hygiene \
         passes cannot reason about the intended API surface.";
      bad = "lib/foo/util.ml with no lib/foo/util.mli";
      good = "lib/foo/util.mli declaring the exported values";
      dirs = [ "lib" ];
      allow = [];
      kind = Tree_pass run_missing_mli;
    };
  ]
