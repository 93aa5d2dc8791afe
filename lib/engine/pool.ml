(* Claiming is [Atomic.fetch_and_add] on a lane's cursor — the same
   operation for the owner and for a thief — so the fast path is one
   uncontended atomic per task and stealing needs no deque machinery.
   A cursor may overshoot its lane bound by a few failed probes; claims
   past the bound are simply discarded.

   Lanes rather than one shared counter: worker [w] starts at index
   [w * n / lanes], so a heavy task late in the array (e17 in the
   experiment registry) starts at once instead of after every task
   before it. *)

let max_jobs = 128

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some j when j >= 1 -> Ok (Stdlib.min j max_jobs)
  | Some _ | None ->
      Error (Printf.sprintf "%S is not an integer of at least 1" s)

let default_jobs () =
  match Sys.getenv_opt "VTP_JOBS" with
  | Some s -> (
      match jobs_of_string s with
      | Ok j -> j
      | Error msg -> invalid_arg ("VTP_JOBS: " ^ msg))
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())

(* Drain one lane to its bound.  Owner and thief run the same code. *)
let drain cursor bound exec =
  let rec go () =
    if Atomic.get cursor < bound then begin
      let i = Atomic.fetch_and_add cursor 1 in
      if i < bound then begin
        exec i;
        go ()
      end
    end
  in
  go ()

let map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Engine.Pool.map: jobs < 1";
  let n = Array.length xs in
  if jobs = 1 || n <= 1 then Array.map f xs
  else begin
    (* Every slot is overwritten before the join. *)
    let results = Array.make n (Error Exit) in
    let exec i = results.(i) <- (try Ok (f xs.(i)) with e -> Error e) in
    let lanes = Stdlib.min jobs n in
    let lane_lo l = l * n / lanes in
    let cursors = Array.init lanes (fun l -> Atomic.make (lane_lo l)) in
    let work home =
      for off = 0 to lanes - 1 do
        let l = (home + off) mod lanes in
        drain cursors.(l) (lane_lo (l + 1)) exec
      done
    in
    (* The caller is worker 0. *)
    let helpers =
      Array.init (lanes - 1) (fun w -> Domain.spawn (fun () -> work (w + 1)))
    in
    work 0;
    Array.iter Domain.join helpers;
    Array.iter (function Error e -> raise e | Ok _ -> ()) results;
    Array.map Result.get_ok results
  end
