(* Shared vocabulary of the analyzer: the finding record, the two pass
   shapes (per-file over tokens+structure, or once over the whole
   scanned tree), and the token-classification helpers more than one
   rule family needs. *)

type finding = {
  rule : string;
  family : string;
  path : string;
  line : int;
  message : string;
  context : string;  (** enclosing binding ("Mod.name") or rule anchor *)
}

type source_ctx = {
  sc_path : string;
  sc_tokens : Lexer.token array;
  sc_items : Parser.item list;
  sc_contexts : Parser.context list;
}

type tree_ctx = {
  tc_files : string list;  (** normalised paths of every scanned file *)
  tc_read : string -> string option;  (** contents by normalised path *)
}

type kind =
  | File_pass of (source_ctx -> finding list)
  | Tree_pass of (tree_ctx -> finding list)

type t = {
  id : string;
  family : string;
  doc : string;
  rationale : string;
  bad : string;
  good : string;
  dirs : string list;  (** path substrings where the pass is active; [] = all *)
  allow : string list;  (** path substrings exempt from the pass *)
  kind : kind;
}

let applies p path =
  let path = Lexer.normalise_path path in
  (p.dirs = [] || List.exists (fun d -> Lexer.contains_sub ~sub:d path) p.dirs)
  && not (List.exists (fun a -> Lexer.contains_sub ~sub:a path) p.allow)

let text_at (ts : Lexer.token array) i =
  if i >= 0 && i < Array.length ts then ts.(i).Lexer.text else ""

let components s = String.split_on_char '.' s

let last_component s =
  match List.rev (components s) with c :: _ -> c | [] -> s

let strip_stdlib s =
  let prefix = "Stdlib." in
  if String.starts_with ~prefix s then
    String.sub s (String.length prefix) (String.length s - String.length prefix)
  else s

(* Pattern-vs-expression position for tokens that appear on both sides
   of an arrow ([Some], [::], [\[]): walk left until a token that can
   only introduce a pattern ('|', 'with') or one that restarts an
   expression.  Heuristic — deeply nested constructor patterns inside
   parens classify as expressions — but exact on the match/function
   arms that make up nearly all real pattern positions. *)
let expr_position (ts : Lexer.token array) i =
  let rec back j =
    if j < 0 then true
    else
      match ts.(j).Lexer.text with
      | "|" | "with" -> false
      | "->" | ":=" | "<-" | "=" | "in" | "then" | "else" | "begin" | "("
      | "[" | ";" | "do" | "try" | "when" | "if" | "&&" | "||" ->
          true
      | _ -> back (j - 1)
  in
  back (i - 1)

let finding ~rule ~family ~path ~line ~message ~context =
  { rule; family; path; line; message; context }

let token_pass ~rule ~family test sc =
  let ts = sc.sc_tokens in
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      match test ts i t with
      | None -> ()
      | Some message ->
          let context =
            match Parser.enclosing sc.sc_contexts i with
            | Some c -> Parser.qualified_name c
            | None -> ""
          in
          out :=
            finding ~rule ~family ~path:sc.sc_path ~line:t.Lexer.tline
              ~message ~context
            :: !out)
    ts;
  List.rev !out
