(* The analyzer's report: one entry shape, a line-insensitive
   fingerprint for baseline matching, and SARIF 2.1.0-style JSON built
   on Stats.Json so the output is byte-deterministic.  Every rule is
   error severity, so the level is a constant. *)

type entry = {
  rule : string;
  family : string;
  path : string;
  line : int;
  message : string;
  context : string;
  fingerprint : string;
}

(* Line numbers are deliberately excluded so unrelated edits above a
   finding don't churn the baseline; the context (enclosing binding)
   disambiguates repeated messages within a file. *)
let fingerprint ~rule ~path ~context ~message =
  Digest.to_hex
    (Digest.string (String.concat "|" [ rule; path; context; message ]))

let make ~rule ~family ~path ~line ~message ~context =
  {
    rule;
    family;
    path;
    line;
    message;
    context;
    fingerprint = fingerprint ~rule ~path ~context ~message;
  }

let of_check (fs : Pass.finding list) =
  List.map
    (fun (f : Pass.finding) ->
      make ~rule:f.rule ~family:f.family ~path:f.path ~line:f.line
        ~message:f.message ~context:f.context)
    fs

let compare_entry a b =
  match String.compare a.path b.path with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match String.compare a.rule b.rule with
          | 0 -> String.compare a.message b.message
          | c -> c)
      | c -> c)
  | c -> c

let sort entries = List.sort compare_entry entries

let sarif ~rules (classified : (entry * bool) list) : Stats.Json.t =
  let open Stats.Json in
  let rule_objs =
    List.map
      (fun (id, doc) ->
        Obj
          [
            ("id", String id);
            ("shortDescription", Obj [ ("text", String doc) ]);
          ])
      (List.sort_uniq
         (fun (a, _) (b, _) -> String.compare a b)
         rules)
  in
  let result_objs =
    List.map
      (fun (e, is_new) ->
        Obj
          [
            ("ruleId", String e.rule);
            ("level", String "error");
            ("message", Obj [ ("text", String e.message) ]);
            ( "locations",
              List
                [
                  Obj
                    [
                      ( "physicalLocation",
                        Obj
                          [
                            ( "artifactLocation",
                              Obj [ ("uri", String e.path) ] );
                            ( "region",
                              Obj [ ("startLine", Int e.line) ] );
                          ] );
                    ];
                ] );
            ( "partialFingerprints",
              Obj [ ("vtp/v1", String e.fingerprint) ] );
            ("baselineState", String (if is_new then "new" else "unchanged"));
            ( "properties",
              Obj
                [
                  ("family", String e.family);
                  ("context", String e.context);
                ] );
          ])
      classified
  in
  Obj
    [
      ("$schema", String "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", String "2.1.0");
      ( "runs",
        List
          [
            Obj
              [
                ( "tool",
                  Obj
                    [
                      ( "driver",
                        Obj
                          [
                            ("name", String "vtp_lint");
                            ("rules", List rule_objs);
                          ] );
                    ] );
                ("results", List result_objs);
              ];
          ] );
    ]

let pp_entry fmt (e, is_new) =
  Format.fprintf fmt "%s:%d: [%s] error: %s%s" e.path e.line e.rule e.message
    (if is_new then "" else " (baselined)")
