let magic = "# vtp-trace-1"

let canonical rec_ =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt max_int;
  Format.fprintf fmt "%s@\n" magic;
  List.iter
    (fun flow ->
      match Recorder.ring rec_ ~flow with
      | None -> ()
      | Some ring ->
          Format.fprintf fmt "flow %d events=%d dropped=%d@\n" flow
            (Ring.total ring) (Ring.dropped ring);
          Ring.iter
            (fun { Ring.at; ev } ->
              Format.fprintf fmt "%h %a@\n" at Event.pp_canonical ev)
            ring)
    (Recorder.flows rec_);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let digest_of_string s = Digest.to_hex (Digest.string s)

let digest rec_ = digest_of_string (canonical rec_)

type divergence = { line : int; left : string option; right : string option }

let diff a b =
  if String.equal a b then None
  else
    let la = String.split_on_char '\n' a in
    let lb = String.split_on_char '\n' b in
    let rec walk n la lb =
      match (la, lb) with
      | [], [] -> None
      | x :: la', y :: lb' ->
          if String.equal x y then walk (n + 1) la' lb'
          else Some { line = n; left = Some x; right = Some y }
      | x :: _, [] -> Some { line = n; left = Some x; right = None }
      | [], y :: _ -> Some { line = n; left = None; right = Some y }
    in
    walk 1 la lb

let pp_divergence fmt d =
  let side name v =
    match v with
    | Some s -> Format.fprintf fmt "  %s: %s@\n" name s
    | None -> Format.fprintf fmt "  %s: <end of trace>@\n" name
  in
  Format.fprintf fmt "first divergence at line %d:@\n" d.line;
  side "left " d.left;
  side "right" d.right
