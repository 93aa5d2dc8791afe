(* API hygiene passes.

   Token rules: polymorphic compare and float-literal equality in
   protocol code, Obj.magic, bare [assert false] and [failwith ""] —
   each a short token window, judged without the item structure.

   test-only-escape: [test_only_*] hooks are deliberate-bug levers for
   the fuzz harness's negative tests; any qualified reference outside
   test/ is production code reaching for a sabotage switch.

   missing-mli: every library module publishes an interface.

   undeclared-export: a compile-independent cross-check that values
   referenced as [Lib.Module.value] from another library appear in
   [lib/<dir>/module.mli].  On a compiling tree this is vacuous by
   construction — its value is on broken or in-progress trees, where
   the analyzer (unlike the compiler) still runs. *)

let family = "api-hygiene"

let kind_at (ts : Lexer.token array) i =
  if i >= 0 && i < Array.length ts then Some ts.(i).Lexer.kind else None

(* Bare [compare] / [Stdlib.compare]: the polymorphic structural compare
   raises on functional values, is wrong on floats (nan) and silently
   depends on record field order — protocol code must use typed
   comparators (Int.compare, Float.compare, Serial.compare, ...). *)
let poly_compare ts i (t : Lexer.token) =
  if t.Lexer.kind <> Lexer.Ident then None
  else if t.Lexer.text = "Stdlib.compare" || t.Lexer.text = "Poly.compare"
  then
    Some
      (t.Lexer.text
     ^ " is polymorphic; use a typed comparator (Int.compare, \
        Float.compare, Serial.compare, ...)")
  else if t.Lexer.text = "compare" then
    (* exempt: definitions (let compare), labels (~compare[:]),
       record-field declarations (compare : ...) *)
    let prev = Pass.text_at ts (i - 1) and next = Pass.text_at ts (i + 1) in
    if prev = "let" || prev = "~" || prev = "and" || next = ":" || next = "="
    then None
    else Some "bare polymorphic compare; use a typed comparator"
  else None

(* [=] / [<>] applied to a float literal.  A bare [=] is also a binder
   (let, record fields, labelled defaults), so an equality is only
   flagged when the token before the left operand introduces an
   expression context. *)
let expr_intro = function
  | "if" | "when" | "then" | "else" | "&&" | "||" | "(" | "begin" | "not"
  | "assert" | "->" | "=" | "<>" | "while" | "do" ->
      true
  | _ -> false

let float_eq ts i (t : Lexer.token) =
  if t.Lexer.kind <> Lexer.Op || (t.Lexer.text <> "=" && t.Lexer.text <> "<>")
  then None
  else
    let left = kind_at ts (i - 1) and right = kind_at ts (i + 1) in
    let float_operand =
      left = Some Lexer.Float_lit || right = Some Lexer.Float_lit
    in
    let simple_left =
      match left with
      | Some (Lexer.Ident | Lexer.Float_lit | Lexer.Int_lit) -> true
      | Some (Lexer.String_lit | Lexer.Op) | None -> false
    in
    if not float_operand then None
    else if t.Lexer.text = "<>" then
      Some "polymorphic <> on a float; use explicit Float comparison"
    else if not simple_left then
      (* e.g. [let f () = 8.0 *. x]: a binder, not a comparison *)
      None
    else
      (* left operand is a single path/literal token at i-1; the token
         before it decides binder vs expression *)
      let before = Pass.text_at ts (i - 2) in
      let is_opt_default = before = "(" && Pass.text_at ts (i - 3) = "?" in
      if expr_intro before && not is_opt_default then
        Some
          "polymorphic = on a float; use Float.equal (or an epsilon \
           comparison)"
      else None

let obj_magic _ _ (t : Lexer.token) =
  if t.Lexer.kind = Lexer.Ident && t.Lexer.text = "Obj.magic" then
    Some "Obj.magic defeats the type system"
  else None

let assert_false ts i (t : Lexer.token) =
  if
    t.Lexer.kind = Lexer.Ident
    && t.Lexer.text = "assert"
    && Pass.text_at ts (i + 1) = "false"
  then
    Some
      "bare 'assert false'; raise an informative error (invalid_arg/failwith \
       with a message) instead"
  else None

let failwith_empty ts i (t : Lexer.token) =
  if
    t.Lexer.kind = Lexer.Ident
    && t.Lexer.text = "failwith"
    && Pass.text_at ts (i + 1) = "\"\""
  then Some "failwith with an empty message"
  else None

let test_only _ _ (t : Lexer.token) =
  match (t.Lexer.kind, Pass.components t.Lexer.text) with
  | Lexer.Ident, _ :: (_ :: _ as rest)
    when List.exists (String.starts_with ~prefix:"test_only_") rest ->
      Some
        (t.Lexer.text
        ^ " is a test-only sabotage hook; production code must never \
           reference it (tests under test/ are exempt)")
  | _ -> None

(* "lib/" may be the start of a relative path or a component of an
   absolute one. *)
let in_lib f =
  String.starts_with ~prefix:"lib/" f || Lexer.contains_sub ~sub:"/lib/" f

let run_missing_mli (tc : Pass.tree_ctx) =
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && in_lib f
        && not (List.mem (f ^ "i") tc.Pass.tc_files)
      then
        Some
          (Pass.finding ~rule:"missing-mli" ~family ~path:f ~line:1
             ~message:"library module has no .mli interface" ~context:"")
      else None)
    tc.Pass.tc_files

(* Wrapped-library roots: toplevel module name -> source directory. *)
let libmap =
  [
    ("Engine", "lib/engine"); ("Packet", "lib/packet");
    ("Netsim", "lib/netsim"); ("Tfrc", "lib/tfrc"); ("Sack", "lib/sack");
    ("Tcp", "lib/tcp"); ("Qtp", "lib/core"); ("Stats", "lib/stats");
    ("Trace", "lib/trace"); ("Analysis", "lib/analysis");
    ("Fuzz", "lib/fuzz"); ("Workload", "lib/workload");
    ("Experiments", "lib/experiments"); ("Trunk", "lib/trunk");
  ]

let lower_start s =
  s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

let upper_start s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* The exported-name set of one .mli: every lowercase dotted-path
   component of every identifier token.  Deliberately permissive — a
   name mentioned anywhere in the interface counts — so the pass only
   fires when the interface is truly silent about a value.  None when
   the .mli is unreadable or uses [include] (the surface is then not
   syntactically evident). *)
let harvest tc_read mli_path =
  match tc_read mli_path with
  | None -> None
  | Some src ->
      let toks = Lexer.tokenize src in
      if
        List.exists
          (fun (t : Lexer.token) ->
            t.Lexer.kind = Lexer.Ident && t.Lexer.text = "include")
          toks
      then None
      else begin
        let names = Hashtbl.create 64 in
        List.iter
          (fun (t : Lexer.token) ->
            if t.Lexer.kind = Lexer.Ident then
              List.iter
                (fun c -> if lower_start c then Hashtbl.replace names c ())
                (Pass.components t.Lexer.text))
          toks;
        Some names
      end

let run_exports (tc : Pass.tree_ctx) =
  let memo = Hashtbl.create 16 in
  let exported mli_path =
    match Hashtbl.find_opt memo mli_path with
    | Some v -> v
    | None ->
        let v = harvest tc.Pass.tc_read mli_path in
        Hashtbl.add memo mli_path v;
        v
  in
  let mls =
    List.sort String.compare
      (List.filter (fun f -> Filename.check_suffix f ".ml") tc.Pass.tc_files)
  in
  List.concat_map
    (fun path ->
      match tc.Pass.tc_read path with
      | None -> []
      | Some src ->
          let seen = Hashtbl.create 8 in
          List.filter_map
            (fun (t : Lexer.token) ->
              if t.Lexer.kind <> Lexer.Ident then None
              else
                match Pass.components t.Lexer.text with
                | c0 :: c1 :: c2 :: _
                  when upper_start c1 && lower_start c2
                       && not (Hashtbl.mem seen t.Lexer.text) -> (
                    match List.assoc_opt c0 libmap with
                    | Some libdir
                      when not (Lexer.contains_sub ~sub:libdir path) -> (
                        Hashtbl.replace seen t.Lexer.text ();
                        let mli =
                          libdir ^ "/" ^ String.uncapitalize_ascii c1
                          ^ ".mli"
                        in
                        match exported mli with
                        | None -> None
                        | Some names ->
                            if Hashtbl.mem names c2 then None
                            else
                              Some
                                (Pass.finding ~rule:"undeclared-export"
                                   ~family ~path ~line:t.Lexer.tline
                                   ~message:
                                     (Printf.sprintf
                                        "'%s' is referenced cross-library \
                                         but '%s' does not declare '%s'; \
                                         export it (or stop reaching into \
                                         the internals)"
                                        t.Lexer.text mli c2)
                                   ~context:t.Lexer.text))
                    | _ -> None)
                | _ -> None)
            (Lexer.tokenize src))
    mls

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
      kind =
        File_pass (Pass.token_pass ~rule:"test-only-escape" ~family test_only);
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
         catches it on any tree state.";
      bad = "Engine.Wheel.bucket_push pool.wheel id ev (* not in wheel.mli *)";
      good = "val bucket_push : t -> int -> Event.t -> unit (* declared in wheel.mli *)";
      dirs = [];
      allow = [];
      kind = Tree_pass run_exports;
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
      kind =
        File_pass (Pass.token_pass ~rule:"poly-compare" ~family poly_compare);
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
      kind = File_pass (Pass.token_pass ~rule:"float-eq" ~family float_eq);
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
      kind = File_pass (Pass.token_pass ~rule:"obj-magic" ~family obj_magic);
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
      kind =
        File_pass (Pass.token_pass ~rule:"assert-false" ~family assert_false);
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
      kind =
        File_pass
          (Pass.token_pass ~rule:"failwith-empty" ~family failwith_empty);
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
