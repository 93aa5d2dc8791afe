(* The analyzer's OCaml lexer and the tree plumbing every pass shares.

   The scanner is deliberately not a full parser: it lexes OCaml well
   enough to see through comments, strings and char literals, glue
   dotted paths into single tokens ("Stdlib.compare", "Random.int") and
   classify numeric literals.  That keeps the analyzer dependency-free,
   fast, and — unlike a compiler-libs AST pass — robust against code
   that does not (yet) compile. *)

type token_kind = Ident | Float_lit | Int_lit | String_lit | Op

type token = { kind : token_kind; text : string; tline : int }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_digit c = c >= '0' && c <= '9'

let is_op_char c = String.contains "!$%&*+-/:<=>?@^|~." c

let tokenize (src : string) : token list =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let push kind text tline = toks := { kind; text; tline } :: !toks in
  let i = ref 0 in
  let bump_lines upto =
    (* count newlines between the current position and [upto] *)
    for k = !i to upto - 1 do
      if k < n && src.[k] = '\n' then incr line
    done
  in
  (* Skip a string literal starting at [j] (src.[j] = '"'); returns the
     index one past the closing quote and the raw literal. *)
  let skip_string j =
    let k = ref (j + 1) in
    let stop = ref false in
    while (not !stop) && !k < n do
      (match src.[!k] with
      | '\\' -> incr k (* skip escaped char *)
      | '"' -> stop := true
      | '\n' -> incr line
      | _ -> ());
      incr k
    done;
    !k
  in
  (* Skip a (possibly nested) comment starting at [j] with src.[j..j+1] =
     "(*".  OCaml lexes string literals inside comments, so '"' must be
     honoured there too. *)
  let skip_comment j =
    let depth = ref 1 in
    let k = ref (j + 2) in
    while !depth > 0 && !k < n do
      if !k + 1 < n && src.[!k] = '(' && src.[!k + 1] = '*' then begin
        incr depth;
        k := !k + 2
      end
      else if !k + 1 < n && src.[!k] = '*' && src.[!k + 1] = ')' then begin
        decr depth;
        k := !k + 2
      end
      else if src.[!k] = '"' then begin
        let j2 = skip_string !k in
        k := j2
      end
      else begin
        if src.[!k] = '\n' then incr line;
        incr k
      end
    done;
    !k
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if !i + 1 < n && c = '(' && src.[!i + 1] = '*' then i := skip_comment !i
    else if c = '"' then begin
      let tline = !line in
      let j = skip_string !i in
      push String_lit (String.sub src !i (j - !i)) tline;
      i := j
    end
    else if c = '\'' then begin
      (* char literal or type variable *)
      if !i + 2 < n && src.[!i + 1] = '\\' then begin
        (* escaped char literal: skip to closing quote *)
        let k = ref (!i + 2) in
        while !k < n && src.[!k] <> '\'' do incr k done;
        i := !k + 1
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' then i := !i + 3
        (* plain char literal *)
      else incr i (* type variable quote: skip, lex the name as ident *)
    end
    else if is_ident_start c then begin
      let tline = !line in
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      (* glue dotted paths: "Stdlib.compare", "t.touched" *)
      let continue = ref true in
      while !continue do
        if
          !j + 1 < n
          && src.[!j] = '.'
          && is_ident_start src.[!j + 1]
        then begin
          incr j;
          while !j < n && is_ident_char src.[!j] do incr j done
        end
        else continue := false
      done;
      push Ident (String.sub src !i (!j - !i)) tline;
      i := !j
    end
    else if is_digit c then begin
      let tline = !line in
      let j = ref !i in
      let is_float = ref false in
      while !j < n && (is_digit src.[!j] || src.[!j] = '_') do incr j done;
      if !j < n && src.[!j] = '.' && not (!j + 1 < n && src.[!j + 1] = '.')
      then begin
        is_float := true;
        incr j;
        while !j < n && (is_digit src.[!j] || src.[!j] = '_') do incr j done
      end;
      if !j < n && (src.[!j] = 'e' || src.[!j] = 'E') then begin
        let k = !j + 1 in
        let k = if k < n && (src.[k] = '+' || src.[k] = '-') then k + 1 else k in
        if k < n && is_digit src.[k] then begin
          is_float := true;
          j := k;
          while !j < n && (is_digit src.[!j] || src.[!j] = '_') do incr j done
        end
      end;
      push (if !is_float then Float_lit else Int_lit)
        (String.sub src !i (!j - !i))
        tline;
      i := !j
    end
    else if is_op_char c then begin
      let tline = !line in
      let j = ref !i in
      while !j < n && is_op_char src.[!j] do incr j done;
      (* don't let a comment opener hide inside an operator run *)
      push Op (String.sub src !i (!j - !i)) tline;
      bump_lines !j;
      i := !j
    end
    else begin
      push Op (String.make 1 c) !line;
      incr i
    end
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Paths and trees *)

let normalise_path p =
  (* strip leading "./" so dir prefixes match *)
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let rec walk dir =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc e ->
          if String.length e > 0 && (e.[0] = '.' || e.[0] = '_') then acc
          else
            let p = Filename.concat dir e in
            if Sys.is_directory p then walk p @ acc
            else if
              Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
            then p :: acc
            else acc)
        [] entries
  | exception Sys_error _ -> []

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
