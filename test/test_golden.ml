(* Golden-trace conformance: every corpus scenario replayed must
   produce the canonical trace committed under test/golden/, byte for
   byte.

   This is a regression gate: any behavioural drift anywhere in the
   protocol stack — segment scheduling, loss inference, rate updates,
   negotiation — changes trace bytes and shows up as a pinpointed line
   diff rather than a silent number change.

   Regenerate after an intentional behaviour change with:
     dune exec bin/vtp_trace.exe -- --regen test/golden *)

let golden_path name = Filename.concat "golden" (name ^ ".trace")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let pp_failure name (d : Trace.Export.divergence) =
  Alcotest.failf "%s: %a" name Trace.Export.pp_divergence d

(* One replay per entry, shared across the test cases so the corpus is
   not re-simulated for every assertion.  All captures fan out through
   one [Engine.Pool.map] on first use; each capture's recorder is
   ambient per domain, so concurrent replays never share state. *)
let captured = Hashtbl.create 16

let populate () =
  if Hashtbl.length captured = 0 then begin
    let entries = Array.of_list Fuzz.Golden.corpus in
    let results = Engine.Pool.map Fuzz.Golden.capture entries in
    Array.iter2
      (fun (e : Fuzz.Golden.entry) (report, recorder) ->
        (* A scenario that stops passing its oracles would silently
           turn the golden file into a record of broken behaviour. *)
        if not (Fuzz.Exec.passed report) then
          Alcotest.failf "%s: scenario no longer passes:@.%a"
            e.Fuzz.Golden.name Fuzz.Exec.pp_report report;
        Hashtbl.replace captured e.Fuzz.Golden.name
          (Trace.Export.canonical recorder))
      entries results
  end

let canonical (e : Fuzz.Golden.entry) =
  populate ();
  match Hashtbl.find_opt captured e.Fuzz.Golden.name with
  | Some text -> text
  | None ->
      Alcotest.failf "%s: capture missing from corpus fan-out"
        e.Fuzz.Golden.name

let test_matches_committed () =
  List.iter
    (fun (e : Fuzz.Golden.entry) ->
      let path = golden_path e.Fuzz.Golden.name in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "%s: missing committed trace %s (regenerate with vtp_trace --regen)"
          e.Fuzz.Golden.name path;
      let want = read_file path in
      let got = canonical e in
      match Trace.Export.diff want got with
      | None -> ()
      | Some d -> pp_failure (e.Fuzz.Golden.name ^ " (vs committed)") d)
    Fuzz.Golden.corpus

let test_digest_stability () =
  (* The committed digest is a pure function of the committed bytes;
     check one entry end to end so digest plumbing cannot rot. *)
  let e = List.hd Fuzz.Golden.corpus in
  let text = canonical e in
  Alcotest.(check string)
    "digest matches committed file"
    (Trace.Export.digest_of_string (read_file (golden_path e.Fuzz.Golden.name)))
    (Trace.Export.digest_of_string text)

let test_seeded_mismatch_is_pinpointed () =
  (* Negative control: corrupt one event line of a committed trace and
     check the diff names exactly that line.  Guards against a diff
     that reports success on differing inputs. *)
  let text = read_file (golden_path "light_headline") in
  let lines = String.split_on_char '\n' text in
  let target = 5 in
  let mutated =
    String.concat "\n"
      (List.mapi
         (fun i l -> if i = target - 1 then l ^ " CORRUPTED" else l)
         lines)
  in
  match Trace.Export.diff text mutated with
  | Some d ->
      Alcotest.(check int) "first divergent line" target d.Trace.Export.line;
      (match (d.Trace.Export.left, d.Trace.Export.right) with
      | Some l, Some r ->
          Alcotest.(check string) "right is left corrupted" (l ^ " CORRUPTED") r
      | _ -> Alcotest.fail "divergence should carry both lines")
  | None -> Alcotest.fail "diff failed to flag a seeded mismatch"

let test_corpus_names_unique () =
  let names = List.map (fun e -> e.Fuzz.Golden.name) Fuzz.Golden.corpus in
  Alcotest.(check int)
    "corpus names unique"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let suite =
  [
    Alcotest.test_case "replay matches committed corpus" `Slow
      test_matches_committed;
    Alcotest.test_case "digest stability" `Slow test_digest_stability;
    Alcotest.test_case "seeded mismatch is pinpointed" `Quick
      test_seeded_mismatch_is_pinpointed;
    Alcotest.test_case "corpus names unique" `Quick test_corpus_names_unique;
  ]
