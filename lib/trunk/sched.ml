type kind = Fifo | Drr

let default_quantum = 1500

(* Growable circular int queue — the DRR active ring and both FIFO
   chunk columns. *)
module Iq = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 16 0; head = 0; len = 0 }

  let length q = q.len

  let grow q =
    let cap = Array.length q.buf in
    let nbuf = Array.make (2 * cap) 0 in
    for i = 0 to q.len - 1 do
      nbuf.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- nbuf;
    q.head <- 0

  let push q x =
    if q.len = Array.length q.buf then grow q;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
    q.len <- q.len + 1

  let peek q = q.buf.(q.head)

  let pop q =
    let x = peek q in
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    if q.len = 0 then q.head <- 0;
    x

  (* Mutate the head element in place (FIFO partial-chunk consumption). *)
  let set_head q x = q.buf.(q.head) <- x
end

type t = {
  knd : kind;
  n : int;
  quantum : int;
  weights : int array;
  backlog : int array;
  deficit : int array;  (* DRR *)
  active : bool array;  (* user is in the DRR ring *)
  ring : Iq.t;  (* DRR: backlogged users in round order *)
  fifo_user : Iq.t;  (* FIFO: admission chunks, parallel columns *)
  fifo_bytes : Iq.t;
  mutable fifo_tail_user : int;  (* last pushed chunk's user, -1 if none *)
  mutable head_fresh : bool;  (* ring head still owed its quantum top-up *)
  mutable total : int;
}

let create ?(quantum = default_quantum) ?weights knd ~users () =
  if users < 1 then invalid_arg "Trunk.Sched: users < 1";
  if quantum < 1 then invalid_arg "Trunk.Sched: quantum < 1";
  let w = Array.make users 1 in
  (match weights with
  | Some ws ->
      Array.iteri (fun i x -> if i < users && x >= 1 then w.(i) <- x) ws
  | None -> ());
  {
    knd;
    n = users;
    quantum;
    weights = w;
    backlog = Array.make users 0;
    deficit = Array.make users 0;
    active = Array.make users false;
    ring = Iq.create ();
    fifo_user = Iq.create ();
    fifo_bytes = Iq.create ();
    fifo_tail_user = -1;
    head_fresh = true;
    total = 0;
  }

let backlog t ~user = t.backlog.(user)

let total t = t.total

let enqueue t ~user bytes =
  if user < 0 || user >= t.n then invalid_arg "Trunk.Sched: user out of range";
  if bytes < 0 then invalid_arg "Trunk.Sched: negative bytes";
  if bytes > 0 then begin
    t.backlog.(user) <- t.backlog.(user) + bytes;
    t.total <- t.total + bytes;
    match t.knd with
    | Drr ->
        if not t.active.(user) then begin
          if Iq.length t.ring = 0 then t.head_fresh <- true;
          Iq.push t.ring user;
          t.active.(user) <- true
        end
    | Fifo ->
        (* Coalesce with the tail chunk when the same user keeps
           admitting — admission order is preserved either way. *)
        if t.fifo_tail_user = user && Iq.length t.fifo_user > 0 then begin
          let cap = Array.length t.fifo_bytes.Iq.buf in
          let tail =
            (t.fifo_bytes.Iq.head + t.fifo_bytes.Iq.len - 1) land (cap - 1)
          in
          t.fifo_bytes.Iq.buf.(tail) <- t.fifo_bytes.Iq.buf.(tail) + bytes
        end
        else begin
          Iq.push t.fifo_user user;
          Iq.push t.fifo_bytes bytes;
          t.fifo_tail_user <- user
        end
  end

let take_bytes t ~user take =
  t.backlog.(user) <- t.backlog.(user) - take;
  t.total <- t.total - take

let fill_drr t ~budget ~overhead ~cap ~f =
  let used = ref 0 in
  let left = ref budget in
  let stop = ref false in
  while (not !stop) && Iq.length t.ring > 0 && !left >= overhead + 1 do
    let u = Iq.peek t.ring in
    if t.head_fresh then begin
      t.deficit.(u) <- t.deficit.(u) + (t.quantum * t.weights.(u));
      t.head_fresh <- false
    end;
    let take =
      Stdlib.min
        (Stdlib.min t.backlog.(u) t.deficit.(u))
        (Stdlib.min cap (!left - overhead))
    in
    if take >= 1 then begin
      f ~user:u ~take;
      take_bytes t ~user:u take;
      t.deficit.(u) <- t.deficit.(u) - take;
      used := !used + overhead + take;
      left := !left - (overhead + take)
    end;
    if t.backlog.(u) = 0 then begin
      (* Queue drained: per DRR, the unspent deficit is forfeited so an
         idle user cannot bank credit. *)
      t.deficit.(u) <- 0;
      ignore (Iq.pop t.ring);
      t.active.(u) <- false;
      t.head_fresh <- true
    end
    else if t.deficit.(u) = 0 then begin
      (* Turn spent: rotate to the tail, next head starts fresh. *)
      ignore (Iq.pop t.ring);
      Iq.push t.ring u;
      t.head_fresh <- true
    end
    else if take = 0 then stop := true
    (* else: same user, another sub-frame (the cap split this turn) *)
  done;
  !used

let fill_fifo t ~budget ~overhead ~cap ~f =
  let used = ref 0 in
  let left = ref budget in
  while Iq.length t.fifo_user > 0 && !left >= overhead + 1 do
    let u = Iq.peek t.fifo_user in
    let avail = Iq.peek t.fifo_bytes in
    let take = Stdlib.min avail (Stdlib.min cap (!left - overhead)) in
    f ~user:u ~take;
    take_bytes t ~user:u take;
    if take = avail then begin
      ignore (Iq.pop t.fifo_user);
      ignore (Iq.pop t.fifo_bytes);
      if Iq.length t.fifo_user = 0 then t.fifo_tail_user <- -1
    end
    else Iq.set_head t.fifo_bytes (avail - take);
    used := !used + overhead + take;
    left := !left - (overhead + take)
  done;
  !used

let fill t ~budget ~overhead ~cap ~f =
  if overhead < 0 || cap < 1 then invalid_arg "Trunk.Sched.fill";
  match t.knd with
  | Drr -> fill_drr t ~budget ~overhead ~cap ~f
  | Fifo -> fill_fifo t ~budget ~overhead ~cap ~f
