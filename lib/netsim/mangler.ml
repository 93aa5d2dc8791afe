type Frame.body += Corrupted of Frame.body

type profile = {
  p_reorder : float;
  reorder_max_hold : int;
  p_duplicate : float;
  p_corrupt : float;
}

let none =
  { p_reorder = 0.0; reorder_max_hold = 0; p_duplicate = 0.0; p_corrupt = 0.0 }

let profile ?(p_reorder = 0.0) ?(reorder_max_hold = 3) ?(p_duplicate = 0.0)
    ?(p_corrupt = 0.0) () =
  assert (p_reorder >= 0.0 && p_reorder <= 1.0);
  assert (p_duplicate >= 0.0 && p_duplicate <= 1.0);
  assert (p_corrupt >= 0.0 && p_corrupt <= 1.0);
  assert (reorder_max_hold >= 0);
  { p_reorder; reorder_max_hold; p_duplicate; p_corrupt }

let is_active p =
  p.p_reorder > 0.0 || p.p_duplicate > 0.0 || p.p_corrupt > 0.0

let pp_profile fmt p =
  Format.fprintf fmt "reorder=%.3f(max %d) dup=%.3f corrupt=%.3f" p.p_reorder
    p.reorder_max_hold p.p_duplicate p.p_corrupt

type stats = {
  mutable passed : int;
  mutable reordered : int;
  mutable duplicated : int;
  mutable corrupted : int;
}

type held = { frame : Frame.t; mutable remaining : int }

type t = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  prof : profile;
  mutable held : held list;  (* oldest first *)
  mutable emit : (Frame.t -> unit) option;
  mutable flush_timer : Engine.Timer.t option;
  mutable on_duplicate : (orig:Frame.t -> dup:Frame.t -> unit) option;
  mutable on_corrupt : (Frame.t -> unit) option;
  st : stats;
}

(* How long a held frame may wait when no later traffic overtakes
   it. *)
let flush_after = 0.25

let create ~sim ~rng prof =
  {
    sim;
    rng;
    prof;
    held = [];
    emit = None;
    flush_timer = None;
    on_duplicate = None;
    on_corrupt = None;
    st = { passed = 0; reordered = 0; duplicated = 0; corrupted = 0 };
  }

let on_duplicate t f = t.on_duplicate <- Some f

let on_corrupt t f = t.on_corrupt <- Some f

let emit_now t frame =
  match t.emit with
  | Some sink -> sink frame
  | None -> failwith "Mangler: frame released before any push set a sink"

let flush t =
  let ready = t.held in
  t.held <- [];
  List.iter (fun h -> emit_now t h.frame) ready;
  match t.flush_timer with Some tm -> Engine.Timer.stop tm | None -> ()

(* Every emission — pass-through, duplicate, corrupted or another held
   frame's release — counts as one overtake against every held frame, so
   a frame held with budget [k] is overtaken by exactly [k] frames
   (fewer if the idle flush fires first).  Releases recurse because a
   release is itself an emission. *)
let rec emit_and_account t frame =
  emit_now t frame;
  List.iter (fun h -> h.remaining <- h.remaining - 1) t.held;
  release_first_ready t

(* Release exactly one ready frame — the earliest-held one — per step:
   releasing several at once would let a cascade emit a late arrival
   ahead of an already-ready earlier one, breaching its budget. *)
and release_first_ready t =
  let rec split acc = function
    | [] -> None
    | h :: rest when h.remaining <= 0 -> Some (List.rev_append acc rest, h)
    | h :: rest -> split (h :: acc) rest
  in
  match split [] t.held with
  | None -> ()
  | Some (held', h) ->
      t.held <- held';
      emit_and_account t h.frame

let arm_flush t =
  if t.held <> [] then begin
    let timer =
      match t.flush_timer with
      | Some tm -> tm
      | None ->
          let tm = Engine.Timer.create t.sim ~on_expire:(fun () -> flush t) in
          t.flush_timer <- Some tm;
          tm
    in
    Engine.Timer.start timer ~after:flush_after
  end

let push t ~emit frame =
  t.emit <- Some emit;
  let p = t.prof in
  if Engine.Rng.chance t.rng p.p_corrupt then begin
    (* The payload is damaged beyond recognition: the frame still burns
       wire time and buffer space but no receiver will parse it. *)
    t.st.corrupted <- t.st.corrupted + 1;
    (match t.on_corrupt with Some f -> f frame | None -> ());
    emit_and_account t { frame with Frame.body = Corrupted frame.Frame.body }
  end
  else if Engine.Rng.chance t.rng p.p_duplicate then begin
    t.st.duplicated <- t.st.duplicated + 1;
    let dup = Frame.copy frame in
    (match t.on_duplicate with
    | Some f -> f ~orig:frame ~dup
    | None -> ());
    emit_and_account t frame;
    emit_and_account t dup
  end
  else if
    p.reorder_max_hold > 0 && Engine.Rng.chance t.rng p.p_reorder
  then begin
    t.st.reordered <- t.st.reordered + 1;
    let k = 1 + Engine.Rng.int t.rng p.reorder_max_hold in
    t.held <- t.held @ [ { frame; remaining = k } ]
  end
  else begin
    t.st.passed <- t.st.passed + 1;
    emit_and_account t frame
  end;
  arm_flush t

let held_frames t = List.length t.held

let stats t = t.st
