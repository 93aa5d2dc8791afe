(* Routes live in an array indexed by flow id: a topology numbers its
   flows densely from 0, so forwarding a frame is one bounds check and
   one load, with no hashing and no option per frame.  [no_route] fills
   the entries no route was added for. *)
let no_route (_ : Frame.t) = ()

type t = {
  mutable routes : (Frame.t -> unit) array;
  mutable unroutable : int;
}

let create () = { routes = [||]; unroutable = 0 }

let add_route t ~flow_id sink =
  if flow_id < 0 then
    invalid_arg
      (Printf.sprintf "Router.add_route: negative flow_id %d" flow_id);
  let n = Array.length t.routes in
  if flow_id >= n then begin
    let grown = Array.make (Stdlib.max (flow_id + 1) (2 * n)) no_route in
    Array.blit t.routes 0 grown 0 n;
    t.routes <- grown
  end;
  t.routes.(flow_id) <- sink

let forward t frame =
  let id = frame.Frame.flow_id in
  let sink =
    if id >= 0 && id < Array.length t.routes then t.routes.(id) else no_route
  in
  if sink != no_route then sink frame else t.unroutable <- t.unroutable + 1

let unroutable t = t.unroutable
