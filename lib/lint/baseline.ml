(* Baseline gating: a committed JSON file of suppressed-but-tracked
   findings.  Matching is by fingerprint multiset — N baselined copies
   of a fingerprint absorb at most N current findings — so moving a
   finding (line churn) doesn't resurface it, while a genuinely new
   instance of an already-known pattern still gates. *)

exception Malformed of string

let schema = "vtp-analysis-baseline-1"

type t = (string, int) Hashtbl.t

let of_entries (entries : Report.entry list) : t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Report.entry) ->
      let n =
        match Hashtbl.find_opt tbl e.Report.fingerprint with
        | Some n -> n
        | None -> 0
      in
      Hashtbl.replace tbl e.Report.fingerprint (n + 1))
    entries;
  tbl

let to_json (entries : Report.entry list) : Stats.Json.t =
  let open Stats.Json in
  Obj
    [
      ("schema", String schema);
      ( "findings",
        List
          (List.map
             (fun (e : Report.entry) ->
               Obj
                 [
                   ("rule", String e.Report.rule);
                   ("path", String e.Report.path);
                   ("line", Int e.Report.line);
                   ("message", String e.Report.message);
                   ("fingerprint", String e.Report.fingerprint);
                 ])
             entries) );
    ]

let of_json (j : Stats.Json.t) : t =
  (match Stats.Json.member "schema" j with
  | Some (Stats.Json.String s) when s = schema -> ()
  | Some (Stats.Json.String s) ->
      raise (Malformed (Printf.sprintf "unknown schema %S (want %S)" s schema))
  | _ -> raise (Malformed "missing \"schema\" field"));
  match Stats.Json.member "findings" j with
  | Some (Stats.Json.List fs) ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun f ->
          match Stats.Json.member "fingerprint" f with
          | Some (Stats.Json.String fp) ->
              let n =
                match Hashtbl.find_opt tbl fp with Some n -> n | None -> 0
              in
              Hashtbl.replace tbl fp (n + 1)
          | _ -> raise (Malformed "finding without a string \"fingerprint\""))
        fs;
      tbl
  | _ -> raise (Malformed "missing \"findings\" list")

let of_string s =
  match Stats.Json.of_string s with
  | j -> of_json j
  | exception Stats.Json.Parse_error m -> raise (Malformed m)

let load path =
  if not (Sys.file_exists path) then
    raise (Malformed (path ^ ": no such baseline file"))
  else of_string (In_channel.with_open_bin path In_channel.input_all)

let save path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Stats.Json.to_channel oc (to_json entries))

(* Entries must arrive sorted ({!Report.sort}) so which duplicate gets
   absorbed is deterministic. *)
let classify (t : t) (entries : Report.entry list) :
    (Report.entry * bool) list =
  let budget = Hashtbl.copy t in
  List.map
    (fun (e : Report.entry) ->
      match Hashtbl.find_opt budget e.Report.fingerprint with
      | Some n when n > 0 ->
          Hashtbl.replace budget e.Report.fingerprint (n - 1);
          (e, false)
      | _ -> (e, true))
    entries
