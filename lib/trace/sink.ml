(* [on] and [emit] sit on the per-segment fast path *)
[@@@vtp.hot]

type t = { flow : int; now : unit -> float }

let make ~flow ~now = { flow; now }

(* one closure per sink at construction time, not per event *)
let[@vtp.alloc_ok] of_sim sim ~flow =
  { flow; now = (fun () -> Engine.Sim.now sim) }

let on sink = match sink with None -> false | Some _ -> Recorder.on ()

let emit sink ev =
  match sink with
  | None -> ()
  | Some s -> Recorder.emit ~flow:s.flow ~at:(s.now ()) ev
