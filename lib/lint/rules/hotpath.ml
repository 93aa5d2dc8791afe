(* Hot-path allocation passes.

   A binding is "hot" when it carries [@vtp.hot] directly, or when it
   is a function in a structure marked with a floating [@@@vtp.hot].
   Hot bodies must not allocate per call: no closures, no list
   construction, no option boxing, no formatting.  [@vtp.alloc_ok] on
   a binding acknowledges a deliberate allocation (e.g. an
   API-mandated option return) and silences all four passes. *)

let family = "hot-path"

let is_hot (b : Pass.binding) =
  List.mem "vtp.hot" b.attrs || (b.is_fun && List.mem "vtp.hot" b.floating)

(* Each hot binding's offences: [judge b e] gives the location and
   message when expression [e] of binding [b] allocates. *)
let hot_pass ~rule judge (sc : Pass.source_ctx) =
  List.concat_map
    (fun (b : Pass.binding) ->
      let out = ref [] in
      if is_hot b && not (List.mem "vtp.alloc_ok" b.attrs) then
        Pass.iter_expr
          (fun e ->
            match judge b e with
            | Some (loc, message) ->
                out :=
                  Pass.finding ~rule ~path:sc.sc_path
                    ~line:(Pass.line loc) ~message ~context:b.context
                  :: !out
            | None -> ())
          b.vb.pvb_expr;
      List.rev !out)
    sc.sc_bindings

(* The binding's own function: past the ghost [fun]s its parameters
   desugar to, the [fun]/[function] it is bound to, if any. *)
let rec after_params (e : Parsetree.expression) =
  match e.pexp_desc with
  | (Pexp_fun (_, _, _, body) | Pexp_newtype (_, body))
    when e.pexp_loc.loc_ghost ->
      after_params body
  | _ -> e

let closure (b : Pass.binding) (e : Parsetree.expression) =
  match e.pexp_desc with
  | (Pexp_fun _ | Pexp_function _)
    when (not e.pexp_loc.loc_ghost) && e != after_params b.vb.pvb_expr ->
      Some
        ( e.pexp_loc,
          Printf.sprintf
            "'%s' in hot '%s' allocates a closure per call; lift it to a \
             top-level function (or mark the binding [@vtp.alloc_ok])"
            (match e.pexp_desc with Pexp_fun _ -> "fun" | _ -> "function")
            b.name )
  | Pexp_let (_, vbs, _) ->
      (* a local binding with parameters: [let rec walk i = ... in] *)
      List.find_map
        (fun (vb : Parsetree.value_binding) ->
          match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
          | Ppat_var v, (Pexp_fun _ | Pexp_newtype _)
            when vb.pvb_expr.pexp_loc.loc_ghost ->
              Some
                ( vb.pvb_loc,
                  Printf.sprintf
                    "nested function '%s' in hot '%s' allocates a closure \
                     per call; lift it to the top level"
                    v.txt b.name )
          | _ -> None)
        vbs
  | _ -> None

let list_builders =
  [
    "List.map"; "List.mapi"; "List.map2"; "List.append"; "List.concat";
    "List.concat_map"; "List.filter"; "List.filter_map"; "List.init";
    "List.rev"; "List.rev_append"; "List.rev_map"; "List.sort";
    "List.stable_sort"; "List.flatten"; "List.of_seq"; "List.split";
    "List.combine";
  ]

let list (b : Pass.binding) (e : Parsetree.expression) =
  let built what =
    Printf.sprintf
      "%s in hot '%s' builds a list per call; use the preallocated scratch \
       buffer or an index loop"
      what b.name
  in
  match (Pass.written_cons e, e.pexp_desc) with
  | Some loc, _ -> Some (loc, built "list cons (::)")
  | None, Pexp_construct ({ txt = Lident "::"; _ }, _)
    when not e.pexp_loc.loc_ghost ->
      (* a list literal's outer cell; its inner cells are ghosts *)
      Some (e.pexp_loc, built "list literal")
  | _ -> (
      let cs = Pass.ident e in
      match Pass.strip_stdlib cs with
      | [ "@" ] -> Some (e.pexp_loc, built "list append (@)")
      | stripped when List.mem (String.concat "." stripped) list_builders ->
          Some (e.pexp_loc, built (String.concat "." cs))
      | _ -> None)

let box (b : Pass.binding) (e : Parsetree.expression) =
  let boxed (loc : Location.t) what =
    Some
      ( loc,
        Printf.sprintf
          "%s allocation in hot '%s'; restructure to avoid boxing per call \
           (or mark the binding [@vtp.alloc_ok])"
          what b.name )
  in
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "Some"; loc }, Some _) -> boxed loc "Some"
  | Pexp_lazy _ -> boxed e.pexp_loc "lazy block"
  | _ when Pass.strip_stdlib (Pass.ident e) = [ "ref" ] ->
      boxed e.pexp_loc "ref cell"
  | _ -> None

let format (b : Pass.binding) (e : Parsetree.expression) =
  let formats what =
    Some
      ( e.pexp_loc,
        Printf.sprintf
          "%s in hot '%s' formats per call; move formatting off the fast \
           path (record raw values, render lazily)"
          what b.name )
  in
  let cs = Pass.ident e in
  match Pass.strip_stdlib cs with
  | [ ("^" | "^^") ] -> formats "string concatenation (^)"
  | ("Printf" | "Format") :: _ -> formats (String.concat "." cs)
  | stripped ->
      if List.exists (String.starts_with ~prefix:"string_of_") stripped then
        formats (String.concat "." cs)
      else None

let passes : Pass.t list =
  [
    {
      id = "hot-closure";
      family;
      doc = "closure allocation inside a [@vtp.hot] body";
      rationale =
        "A fun/function expression or nested let-defined function \
         inside a hot body allocates a closure every call; at packet \
         rate that is steady minor-GC pressure the flight recorder \
         showed up as latency jitter.  Lifted top-level functions \
         allocate nothing.";
      bad = "let[@vtp.hot] level_of t tick =\n  let rec find l = ... in find 0";
      good = "let rec find_level x l = ...\nlet[@vtp.hot] level_of t tick = find_level (tick lxor t.cursor) 0";
      dirs = [];
      allow = [];
      kind = File_pass (hot_pass ~rule:"hot-closure" closure);
    };
    {
      id = "hot-list";
      family;
      doc = "list construction inside a [@vtp.hot] body";
      rationale =
        "Consing, list literals and List combinators allocate one cell \
         per element per call; hot paths keep reused scratch arrays \
         instead (see Rcv_tracker.sack_blocks).";
      bad = "let[@vtp.hot] drain t = List.map fire t.due";
      good = "let[@vtp.hot] drain t = for i = 0 to t.n - 1 do fire t.due.(i) done";
      dirs = [];
      allow = [];
      kind = File_pass (hot_pass ~rule:"hot-list" list);
    };
    {
      id = "hot-box";
      family;
      doc = "option/ref/lazy boxing inside a [@vtp.hot] body";
      rationale =
        "Every Some, ref or lazy in a hot body is a fresh heap block; \
         per-segment code paths use sentinel values or mutable fields \
         on preallocated records instead.";
      bad = "let[@vtp.hot] peek t = if t.n = 0 then None else Some t.arr.(0)";
      good = "let[@vtp.hot] peek t = if t.n = 0 then t.dummy else t.arr.(0)";
      dirs = [];
      allow = [];
      kind = File_pass (hot_pass ~rule:"hot-box" box);
    };
    {
      id = "hot-format";
      family;
      doc = "Printf/Format/string building inside a [@vtp.hot] body";
      rationale =
        "Formatting allocates buffers and intermediate strings and is \
         orders of magnitude slower than the surrounding packet \
         processing; the trace subsystem records raw values and \
         renders them only when a report is requested.";
      bad = "let[@vtp.hot] emit t = log (Printf.sprintf \"seq=%d\" t.seq)";
      good =
        "let[@vtp.hot] emit t = if Trace.Sink.on t.sink then Trace.Sink.emit \
         t.sink (Trace.Event.Abandoned { seq = t.seq })";
      dirs = [];
      allow = [];
      kind = File_pass (hot_pass ~rule:"hot-format" format);
    };
  ]
