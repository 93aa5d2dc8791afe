type body = ..

type body += Raw of int

type t = {
  uid : int;
  flow_id : int;
  size : int;
  mutable mark : Mark.t;
  mutable ect : bool;
  mutable ce : bool;
  body : body;
}

let make ~uid ~flow_id ~size ?(mark = Mark.Best_effort) body =
  { uid; flow_id; size; mark; ect = false; ce = false; body }

(* One stream per domain keeps frame uids unique across every
   allocator (transport frames, in-network duplicates) of every
   simulation that domain runs, which the packet-conservation checker
   relies on.  A simulation never crosses domains, so domain-local
   uniqueness is all the checker needs — and the counter carries no
   behaviour, so parallel runs stay deterministic. *)
let uid_counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_uid () =
  let c = Domain.DLS.get uid_counter in
  incr c;
  !c

let copy t = { t with uid = fresh_uid () }

let dummy = make ~uid:0 ~flow_id:(-1) ~size:0 (Raw (-1))
