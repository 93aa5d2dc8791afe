type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN/Infinity literals; map them to null so emitted files
   always parse.  [%.12g] keeps measurement precision without the noise
   of full round-trip digits. *)
let float_repr f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | FP_zero | FP_subnormal | FP_normal ->
      let s = Printf.sprintf "%.12g" f in
      (* "1e+06" is valid JSON, "1." is not; "1" is but keeps int/float
         ambiguity — normalise bare integers to a trailing ".0". *)
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec emit buf ~level v =
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (level + 1);
          emit buf ~level:(level + 1) item)
        items;
      Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (level + 1);
          escape buf k;
          Buffer.add_string buf ": ";
          emit buf ~level:(level + 1) item)
        fields;
      Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf ~level:0 v;
  Buffer.contents buf

let to_channel oc v =
  output_string oc (to_string v);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Parsing.

   A recursive-descent reader for standard JSON, so perfbench can read
   BENCHMARK.json.
   Numbers without '.', 'e' or a leading '-that-overflows' parse as
   [Int]; everything else numeric parses as [Float].  \uXXXX escapes
   decode below 0x80 and degrade to '?' above (the emitter never
   produces those). *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let parse_fail cur msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos msg))

let peek cur =
  if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let continue = ref true in
  while !continue do
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> advance cur
    | Some _ | None -> continue := false
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> parse_fail cur (Printf.sprintf "expected %c, got %c" c got)
  | None -> parse_fail cur (Printf.sprintf "expected %c, got end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else parse_fail cur ("expected " ^ word)

let parse_string_body cur =
  let buf = Buffer.create 16 in
  expect cur '"';
  let rec go () =
    match peek cur with
    | None -> parse_fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
        advance cur;
        (match peek cur with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
            if cur.pos + 4 >= String.length cur.src then
              parse_fail cur "truncated \\u escape";
            let hex = String.sub cur.src (cur.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with Failure _ -> parse_fail cur "bad \\u escape"
            in
            Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
            cur.pos <- cur.pos + 4
        | Some c -> parse_fail cur (Printf.sprintf "bad escape \\%c" c)
        | None -> parse_fail cur "unterminated escape");
        advance cur;
        go ()
    | Some c ->
        Buffer.add_char buf c;
        advance cur;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> is_num_char c | None -> false) do
    advance cur
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  let is_int =
    (not (String.contains s '.'))
    && (not (String.contains s 'e'))
    && not (String.contains s 'E')
  in
  if is_int then
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> parse_fail cur ("bad number: " ^ s))
  else
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> parse_fail cur ("bad number: " ^ s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> parse_fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string_body cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> parse_fail cur "expected , or ] in array"
        in
        List (items [])
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else
        let field () =
          skip_ws cur;
          let k = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields (kv :: acc)
          | Some '}' ->
              advance cur;
              List.rev (kv :: acc)
          | _ -> parse_fail cur "expected , or } in object"
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> parse_fail cur (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  (match peek cur with
  | None -> ()
  | Some _ -> parse_fail cur "trailing garbage after value");
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None
