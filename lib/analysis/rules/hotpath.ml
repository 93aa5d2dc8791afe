(* Hot-path allocation passes.

   A binding is "hot" when it carries [@vtp.hot] directly, or when it
   is a function in a structure marked with a floating [@@@vtp.hot].
   Hot bodies must not allocate per call: no closures, no list
   construction, no option boxing, no formatting.  [@vtp.alloc_ok] on
   a binding acknowledges a deliberate allocation (e.g. an
   API-mandated option return) and silences all four passes. *)

let family = "hot-path"

let is_hot (c : Parser.context) =
  List.mem "vtp.hot" c.Parser.cx_binding.Parser.battrs
  || (c.Parser.cx_binding.Parser.bfun
     && List.mem "vtp.hot" c.Parser.cx_floating)

let exempt (c : Parser.context) =
  List.mem "vtp.alloc_ok" c.Parser.cx_binding.Parser.battrs

let scan_hot (sc : Pass.source_ctx) f =
  List.concat_map
    (fun c -> if is_hot c && not (exempt c) then f c else [])
    sc.Pass.sc_contexts

let mk (sc : Pass.source_ctx) c ~rule ~line message =
  Pass.finding ~rule ~family ~path:sc.Pass.sc_path ~line ~message
    ~context:(Parser.qualified_name c)

let is_ident (ts : Lexer.token array) i =
  i >= 0 && i < Array.length ts
  && match ts.(i).Lexer.kind with Lexer.Ident -> true | _ -> false

let run_closure (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  scan_hot sc (fun c ->
      let lo, hi = c.Parser.cx_binding.Parser.bbody in
      let out = ref [] in
      for j = lo to hi - 1 do
        if is_ident ts j then
          match Pass.text_at ts j with
          | ("fun" | "function") when j > lo ->
              (* a leading fun/function IS the binding, not a per-call
                 allocation *)
              out :=
                mk sc c ~rule:"hot-closure" ~line:ts.(j).Lexer.tline
                  (Printf.sprintf
                     "'%s' in hot '%s' allocates a closure per call; lift \
                      it to a top-level function (or mark the binding \
                      [@vtp.alloc_ok])"
                     (Pass.text_at ts j) c.Parser.cx_binding.Parser.bname)
                :: !out
          | "let" ->
              let k =
                if Pass.text_at ts (j + 1) = "rec" then j + 2 else j + 1
              in
              if
                is_ident ts k
                && (match Pass.text_at ts k with
                   | "rec" | "open" | "module" | "exception" -> false
                   | _ -> true)
                && not
                     (List.mem
                        (Pass.text_at ts (k + 1))
                        [ "="; ":"; ","; "::" ])
              then
                out :=
                  mk sc c ~rule:"hot-closure" ~line:ts.(j).Lexer.tline
                    (Printf.sprintf
                       "nested function '%s' in hot '%s' allocates a \
                        closure per call; lift it to the top level"
                       (Pass.text_at ts k) c.Parser.cx_binding.Parser.bname)
                  :: !out
          | _ -> ()
      done;
      List.rev !out)

let list_builders =
  [
    "List.map"; "List.mapi"; "List.map2"; "List.append"; "List.concat";
    "List.concat_map"; "List.filter"; "List.filter_map"; "List.init";
    "List.rev"; "List.rev_append"; "List.rev_map"; "List.sort";
    "List.stable_sort"; "List.flatten"; "List.of_seq"; "List.split";
    "List.combine";
  ]

let run_list (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  scan_hot sc (fun c ->
      let lo, hi = c.Parser.cx_binding.Parser.bbody in
      let out = ref [] in
      let flag j what =
        out :=
          mk sc c ~rule:"hot-list" ~line:ts.(j).Lexer.tline
            (Printf.sprintf
               "%s in hot '%s' builds a list per call; use the \
                preallocated scratch buffer or an index loop"
               what c.Parser.cx_binding.Parser.bname)
          :: !out
      in
      for j = lo to hi - 1 do
        let t = ts.(j) in
        match t.Lexer.kind with
        | Lexer.Ident ->
            if List.mem (Pass.strip_stdlib t.Lexer.text) list_builders then
              flag j t.Lexer.text
        | Lexer.Op ->
            if t.Lexer.text = "::" && Pass.expr_position ts j then
              flag j "list cons (::)"
            else if
              t.Lexer.text = "@" && j > lo && Parser.is_ender ts.(j - 1)
            then flag j "list append (@)"
            else if
              t.Lexer.text = "["
              && (match Pass.text_at ts (j + 1) with
                 | "]" | "|" -> false
                 | s -> not (s <> "" && String.for_all (fun ch -> ch = '@') s))
              && Pass.text_at ts (j - 1) <> "."
              && Pass.expr_position ts j
            then flag j "list literal"
        | _ -> ()
      done;
      List.rev !out)

let run_box (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  scan_hot sc (fun c ->
      let lo, hi = c.Parser.cx_binding.Parser.bbody in
      let out = ref [] in
      for j = lo to hi - 1 do
        if is_ident ts j then
          let what =
            match Pass.text_at ts j with
            | "Some" when Pass.expr_position ts j -> "Some"
            | "ref" -> "ref cell"
            | "lazy" -> "lazy block"
            | _ -> ""
          in
          if what <> "" then
            out :=
              mk sc c ~rule:"hot-box" ~line:ts.(j).Lexer.tline
                (Printf.sprintf
                   "%s allocation in hot '%s'; restructure to avoid \
                    boxing per call (or mark the binding [@vtp.alloc_ok])"
                   what c.Parser.cx_binding.Parser.bname)
              :: !out
      done;
      List.rev !out)

let run_format (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  scan_hot sc (fun c ->
      let lo, hi = c.Parser.cx_binding.Parser.bbody in
      let out = ref [] in
      let flag j what =
        out :=
          mk sc c ~rule:"hot-format" ~line:ts.(j).Lexer.tline
            (Printf.sprintf
               "%s in hot '%s' formats per call; move formatting off \
                the fast path (record raw values, render lazily)"
               what c.Parser.cx_binding.Parser.bname)
          :: !out
      in
      for j = lo to hi - 1 do
        let t = ts.(j) in
        match t.Lexer.kind with
        | Lexer.Ident -> (
            match Pass.components (Pass.strip_stdlib t.Lexer.text) with
            | ("Printf" | "Format") :: _ -> flag j t.Lexer.text
            | cs ->
                if
                  List.exists (String.starts_with ~prefix:"string_of_") cs
                then flag j t.Lexer.text)
        | Lexer.Op ->
            if t.Lexer.text = "^" || t.Lexer.text = "^^" then
              flag j "string concatenation (^)"
        | _ -> ()
      done;
      List.rev !out)

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
      kind = File_pass run_closure;
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
      kind = File_pass run_list;
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
      kind = File_pass run_box;
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
      kind = File_pass run_format;
    };
  ]
