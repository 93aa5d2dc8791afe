type params = {
  fps : float;
  gop : int;
  mean_i_bytes : float;
  mean_p_bytes : float;
  jitter : float;
  payload : int;
}

let default_params =
  {
    fps = 25.0;
    gop = 12;
    mean_i_bytes = 9000.0;
    mean_p_bytes = 3000.0;
    jitter = 0.2;
    payload = 1431;
  }

type t = {
  rng : Engine.Rng.t;
  p : params;
  stop_at : float option;
  mutable frame_no : int;
  mutable frames : int;
  mutable bytes : int;
}

let mean_rate_bps p =
  let per_gop =
    p.mean_i_bytes +. (float_of_int (p.gop - 1) *. p.mean_p_bytes)
  in
  8.0 *. per_gop *. p.fps /. float_of_int p.gop

let frame_size t =
  let mean =
    if t.frame_no mod t.p.gop = 0 then t.p.mean_i_bytes else t.p.mean_p_bytes
  in
  let noise =
    if t.p.jitter <= 0.0 then 1.0
    else
      Engine.Dist.uniform_range t.rng ~lo:(1.0 -. t.p.jitter)
        ~hi:(1.0 +. t.p.jitter)
  in
  Stdlib.max 200 (int_of_float (mean *. noise))

let start ~sim ~rng p ~push ?stop_at () =
  assert (p.fps > 0.0 && p.gop >= 1 && p.payload > 0);
  let t = { rng; p; stop_at; frame_no = 0; frames = 0; bytes = 0 } in
  let gap = 1.0 /. p.fps in
  let active () =
    match t.stop_at with
    | Some stop -> Engine.Sim.now sim < stop
    | None -> true
  in
  let rec tick () =
    if active () then begin
      let size = frame_size t in
      let pkts = (size + p.payload - 1) / p.payload in
      t.frame_no <- t.frame_no + 1;
      t.frames <- t.frames + 1;
      t.bytes <- t.bytes + size;
      push pkts;
      Engine.Sim.post_after sim gap tick
    end
  in
  Engine.Sim.post_at sim 0.0 tick;
  t

let frames_emitted t = t.frames

let bytes_emitted t = t.bytes
