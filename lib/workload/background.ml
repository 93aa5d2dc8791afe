type t = {
  sim : Engine.Sim.t;
  sink : Netsim.Frame.t -> unit;
  flow_id : int;
  packet_size : int;
  stop_at : float option;
  mutable packets : int;
  mutable bytes : int;
}

let active t =
  match t.stop_at with
  | Some stop -> Engine.Sim.now t.sim < stop
  | None -> true

let emit t =
  let uid = Netsim.Frame.fresh_uid () in
  let frame =
    Netsim.Frame.make ~uid ~flow_id:t.flow_id ~size:t.packet_size
      (Netsim.Frame.Raw uid)
  in
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + t.packet_size;
  t.sink frame

(* One frame per tick, then the next tick an exponential gap later,
   until [stop_at]. *)
let poisson ~sim ~sink ~flow_id ~rng ~rate_bps ~packet_size ?stop_at () =
  assert (rate_bps > 0.0);
  let t =
    { sim; sink; flow_id; packet_size; stop_at; packets = 0; bytes = 0 }
  in
  let mean_gap = 8.0 *. float_of_int packet_size /. rate_bps in
  let rec tick () =
    if active t then begin
      emit t;
      Engine.Sim.post_after sim
        (Engine.Dist.exponential rng ~mean:mean_gap)
        tick
    end
  in
  Engine.Sim.post_at sim 0.0 tick;
  t

let packets_sent t = t.packets

let bytes_sent t = t.bytes
