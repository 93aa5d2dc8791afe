type t = {
  sim : Engine.Sim.t;
  ladder : float list;  (* ascending *)
  transport_rate_bps : unit -> float;
  fps : float;
  stop_at : float option;
  mutable rung : float;
  mutable switches : int;
  mutable frames : int;
  mutable rung_since : float;
  mutable rung_time : (float * float) list;  (* rung -> accumulated secs *)
}

(* Encode below the transport estimate, at this share of it. *)
let headroom = 0.85

(* Transport payload bytes per packet. *)
let payload = 1431

let account_rung_time t ~now =
  let elapsed = now -. t.rung_since in
  if elapsed > 0.0 then begin
    let cur = try List.assoc t.rung t.rung_time with Not_found -> 0.0 in
    t.rung_time <-
      (t.rung, cur +. elapsed) :: List.remove_assoc t.rung t.rung_time
  end;
  t.rung_since <- now

let pick_rung t =
  let budget = headroom *. t.transport_rate_bps () in
  let best =
    List.fold_left
      (fun acc rung -> if rung <= budget then rung else acc)
      (List.hd t.ladder) t.ladder
  in
  best

let active t =
  match t.stop_at with
  | Some stop -> Engine.Sim.now t.sim < stop
  | None -> true

let start ~sim ~rng ~ladder_bps ~transport_rate_bps ?(fps = 25.0) ~push
    ?stop_at () =
  if ladder_bps = [] then invalid_arg "Adaptive_media.start: empty ladder";
  let ladder = List.sort Float.compare ladder_bps in
  let t =
    {
      sim;
      ladder;
      transport_rate_bps;
      fps;
      stop_at;
      rung = List.hd ladder;
      switches = 0;
      frames = 0;
      rung_since = 0.0;
      rung_time = [];
    }
  in
  (* Start at the rung the transport can already carry — the initial
     ramp is not a viewer-visible quality switch. *)
  t.rung <- pick_rung t;
  (* Once a second: re-evaluate the rung. *)
  let rec adapt () =
    if active t then begin
      let now = Engine.Sim.now sim in
      let next = pick_rung t in
      if next <> t.rung then begin
        account_rung_time t ~now;
        t.rung <- next;
        t.switches <- t.switches + 1
      end;
      Engine.Sim.post_after sim 1.0 adapt
    end
  in
  (* Frame clock: bytes per frame follow the current rung (with ±10%
     size noise), chopped into payload-sized packets. *)
  let rec frame_tick () =
    if active t then begin
      let bytes_per_frame = t.rung /. 8.0 /. t.fps in
      let noise = Engine.Dist.uniform_range rng ~lo:0.9 ~hi:1.1 in
      let size = Stdlib.max 200 (int_of_float (bytes_per_frame *. noise)) in
      let pkts = (size + payload - 1) / payload in
      t.frames <- t.frames + 1;
      push pkts;
      Engine.Sim.post_after sim (1.0 /. t.fps) frame_tick
    end
  in
  Engine.Sim.post_at sim 0.0 adapt;
  Engine.Sim.post_at sim 0.0 frame_tick;
  t

let current_rung_bps t = t.rung

let switches t = t.switches

let frames_emitted t = t.frames

let rung_time_fractions t =
  account_rung_time t ~now:(Engine.Sim.now t.sim);
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 t.rung_time in
  if total <= 0.0 then []
  else
    List.sort
      (fun (a, _) (b, _) -> Float.compare b a)
      (List.map (fun (r, s) -> (r, s /. total)) t.rung_time)
