(* A structural parser over the Lexer token stream.

   It recovers just enough of the shape of an OCaml compilation unit for
   the rule passes to reason about scope: the sequence of structure
   items (let-bindings, modules, floating attributes), each binding's
   attributes, whether it is a function, and the token span of its body.
   It is not a grammar: item boundaries are recognised by a depth-0
   keyword whose *preceding* token ends an expression (an identifier,
   literal or closer), which cleanly separates `let x = e  let y = ...`
   from `let x = let y = 1 in ...` without parsing expressions.  Like
   the lexer it never sees inside comments or strings, and it stays
   robust on code that does not (yet) compile. *)

type binding = {
  bname : string;
  bline : int;
  battrs : string list;
  bfun : bool;
  bspan : int * int;
  bbody : int * int;
}

type item =
  | Let of binding
  | Module of { mname : string; mline : int; mitems : item list }
  | Floating of { aname : string; aline : int }
  | Other of { okw : string; oline : int; ospan : int * int }

type context = {
  cx_binding : binding;
  cx_mods : string list;
  cx_floating : string list;
}

let item_keywords =
  [
    "let"; "type"; "module"; "open"; "exception"; "include"; "external";
    "and"; "class"; "val";
  ]

(* Keywords that continue an expression: a depth-0 item keyword right
   after one of these is part of the same item, not a new one. *)
let non_enders =
  [
    "in"; "then"; "else"; "begin"; "struct"; "sig"; "object"; "do";
    "downto"; "to"; "with"; "match"; "try"; "fun"; "function"; "if";
    "while"; "for"; "when"; "of"; "as"; "rec"; "nonrec"; "and"; "mutable";
    "private"; "lazy"; "assert"; "not"; "new"; "let"; "type"; "module";
    "open"; "exception"; "include"; "external"; "val"; "method"; "inherit";
    "initializer"; "constraint"; "virtual";
  ]

let is_ender (t : Lexer.token) =
  match t.kind with
  | Lexer.Int_lit | Lexer.Float_lit | Lexer.String_lit -> true
  | Lexer.Ident -> not (List.mem t.text non_enders)
  | Lexer.Op -> ( match t.text with ")" | "]" | "}" -> true | _ -> false)

(* Bracket/block nesting.  `match`/`if` need no closer so they do not
   count; `do...done` covers for/while bodies. *)
let depth_delta (t : Lexer.token) =
  match t.text with
  | "(" | "[" | "{" | "begin" | "struct" | "sig" | "object" | "do" -> 1
  | ")" | "]" | "}" | "end" | "done" -> -1
  | _ -> 0

let parse (ts : Lexer.token array) : item list =
  let n = Array.length ts in
  let text i = if i >= 0 && i < n then ts.(i).Lexer.text else "" in
  let is_ident i =
    i >= 0 && i < n && (match ts.(i).Lexer.kind with Lexer.Ident -> true | _ -> false)
  in
  let line i =
    if i >= 0 && i < n then ts.(i).Lexer.tline
    else if n > 0 then ts.(n - 1).Lexer.tline
    else 1
  in
  let all_at s = s <> "" && String.for_all (fun c -> c = '@') s in
  (* attribute opener: "[" followed by a run of '@'s, e.g.
     [@vtp.hot] / [@@deriving] / [@@@vtp.hot] *)
  let at_attr i = text i = "[" && all_at (text (i + 1)) in
  let attr_name i = if is_ident (i + 2) then text (i + 2) else "" in
  (* skip a balanced bracket group starting at i; returns the index one
     past the matching closer *)
  let skip_group i =
    let depth = ref 0 and j = ref i and stop = ref false in
    while (not !stop) && !j < n do
      (match text !j with
      | "(" | "[" | "{" -> incr depth
      | ")" | "]" | "}" ->
          decr depth;
          if !depth = 0 then stop := true
      | _ -> ());
      incr j
    done;
    !j
  in
  let is_item_kw i = is_ident i && List.mem (text i) item_keywords in
  (* End of the item starting at [start]: the first depth-0 item keyword
     preceded by an expression ender, the first depth-0 floating
     attribute, the depth-0 closer of the enclosing block, or [n].
     A depth-0 `and` belongs to an open inner `let ... and ... in`
     chain, not to the item sequence, while any unclosed expression-
     level `let` remains; [inner_lets] tracks that balance. *)
  let find_end start =
    let depth = ref 0 and i = ref start and res = ref n and stop = ref false in
    let inner_lets = ref 0 in
    while (not !stop) && !i < n do
      let t = ts.(!i) in
      let d = depth_delta t in
      let boundary_kw =
        !i > start
        && is_item_kw !i
        && (text !i <> "and" || !inner_lets = 0)
        && is_ender ts.(!i - 1)
      in
      if d < 0 && !depth = 0 then begin
        res := !i;
        stop := true
      end
      else if
        !i > start && !depth = 0
        && (boundary_kw || (at_attr !i && text (!i + 1) = "@@@"))
      then begin
        res := !i;
        stop := true
      end
      else begin
        if !depth = 0 && !i > start then begin
          match t.Lexer.text with
          | "let" -> incr inner_lets
          | "in" -> if !inner_lets > 0 then decr inner_lets
          | _ -> ()
        end;
        depth := !depth + d;
        incr i
      end
    done;
    !res
  in
  let parse_let i =
    let bline = line i in
    let battrs = ref [] in
    let j = ref (i + 1) in
    let eat_attrs () =
      (* binding attributes use one or two '@'s: let[@vtp.hot] f ... *)
      while at_attr !j && String.length (text (!j + 1)) <= 2 do
        if attr_name !j <> "" then battrs := attr_name !j :: !battrs;
        j := skip_group !j
      done
    in
    eat_attrs ();
    if text !j = "rec" || text !j = "nonrec" then incr j;
    eat_attrs ();
    let e =
      let e = find_end i in
      if e <= i then i + 1 else e
    in
    let is_pattern = not (is_ident !j) in
    let bname =
      if not is_pattern then text !j
      else if text !j = "(" && text (!j + 1) = ")" then "()"
      else "(pattern)"
    in
    let scan_start = if is_pattern then skip_group !j else !j + 1 in
    (* the binding's own '=' is the first at depth 0 (parameter defaults
       and annotations sit inside parens) *)
    let eq =
      let depth = ref 0 and k = ref scan_start and found = ref (-1) in
      while !found < 0 && !k < e do
        let t = ts.(!k) in
        if !depth = 0 && t.Lexer.text = "="
           && (match t.Lexer.kind with Lexer.Op -> true | _ -> false)
        then found := !k
        else begin
          depth := Stdlib.max 0 (!depth + depth_delta t);
          incr k
        end
      done;
      !found
    in
    let body_lo = if eq >= 0 then eq + 1 else e in
    let params = eq >= 0 && scan_start < eq && text scan_start <> ":" in
    let body_fun =
      body_lo < e && (text body_lo = "fun" || text body_lo = "function")
    in
    (* trailing item attributes: let f x = e [@@vtp.hot] *)
    for k = body_lo to e - 2 do
      if text k = "[" && text (k + 1) = "@@" && attr_name k <> "" then
        battrs := attr_name k :: !battrs
    done;
    ( {
        bname;
        bline;
        battrs = List.rev !battrs;
        bfun = params || body_fun;
        bspan = (i, e);
        bbody = (body_lo, e);
      },
      e )
  in
  let rec parse_items i ~in_module acc =
    if i >= n then (List.rev acc, n)
    else if in_module && text i = "end" then (List.rev acc, i + 1)
    else if at_attr i && text (i + 1) = "@@@" then
      let a = Floating { aname = attr_name i; aline = line i } in
      parse_items (skip_group i) ~in_module (a :: acc)
    else if is_ident i && text i = "let" then
      let b, j = parse_let i in
      parse_items j ~in_module (Let b :: acc)
    else if
      is_ident i && text i = "and"
      && match acc with Let _ :: _ -> true | _ -> false
    then
      let b, j = parse_let i in
      parse_items j ~in_module (Let b :: acc)
    else if is_ident i && text i = "module" && text (i + 1) <> "type" then
      let it, j = parse_module i in
      parse_items j ~in_module (it :: acc)
    else
      let okw = if is_item_kw i then text i else text i in
      let e = find_end i in
      let e = if e <= i then i + 1 else e in
      parse_items e ~in_module
        (Other { okw; oline = line i; ospan = (i, e) } :: acc)
  and parse_module i =
    let mline = line i in
    let j = if text (i + 1) = "rec" then i + 2 else i + 1 in
    let mname = if is_ident j then text j else "?" in
    (* find this item's depth-0 '=' (functor parameters and signature
       annotations live inside parens / after ':') *)
    let eq =
      let depth = ref 0 and k = ref (j + 1) and found = ref (-1) in
      let stop = ref false in
      while (not !stop) && !found < 0 && !k < n do
        let t = ts.(!k) in
        let d = depth_delta t in
        if d < 0 && !depth = 0 then stop := true
        else if
          !depth = 0 && t.Lexer.text = "="
          && match t.Lexer.kind with Lexer.Op -> true | _ -> false
        then found := !k
        else if !depth = 0 && is_item_kw !k && is_ender ts.(!k - 1) then
          stop := true
        else begin
          depth := !depth + d;
          incr k
        end
      done;
      !found
    in
    if eq >= 0 && text (eq + 1) = "struct" then begin
      let mitems, k = parse_items (eq + 2) ~in_module:true [] in
      (Module { mname; mline; mitems }, k)
    end
    else
      let e = find_end i in
      let e = if e <= i then i + 1 else e in
      (Other { okw = "module"; oline = mline; ospan = (i, e) }, e)
  in
  let items, _ = parse_items 0 ~in_module:false [] in
  items

let contexts (items : item list) : context list =
  let acc = ref [] in
  let rec go mods floating items =
    let floats =
      floating
      @ List.filter_map
          (function Floating f -> Some f.aname | _ -> None)
          items
    in
    List.iter
      (function
        | Let b ->
            acc := { cx_binding = b; cx_mods = mods; cx_floating = floats }
                   :: !acc
        | Module m -> go (mods @ [ m.mname ]) floats m.mitems
        | Floating _ | Other _ -> ())
      items
  in
  go [] [] items;
  List.rev !acc

let enclosing (cxs : context list) idx =
  List.find_opt
    (fun c ->
      let lo, hi = c.cx_binding.bspan in
      idx >= lo && idx < hi)
    cxs

let qualified_name c = String.concat "." (c.cx_mods @ [ c.cx_binding.bname ])
