type t = {
  take_impl : t -> bool;
  mutable notify : unit -> unit;
  mutable offered : int;
}

let take t =
  let ok = t.take_impl t in
  if ok then t.offered <- t.offered + 1;
  ok

let set_notify t f = t.notify <- f

let offered_packets t = t.offered

let greedy () =
  { take_impl = (fun _ -> true); notify = ignore; offered = 0 }

let pull ~take () = { take_impl = (fun _ -> take ()); notify = ignore; offered = 0 }

let wake t = t.notify ()

let finite ~packets =
  let remaining = ref packets in
  {
    take_impl =
      (fun _ ->
        if !remaining > 0 then begin
          decr remaining;
          true
        end
        else false);
    notify = ignore;
    offered = 0;
  }

(* Shared machinery for rate-shaped sources: a byte accumulator filled
   while [active ()], waking the sender when the next packet is ready. *)
let shaped ~sim ~rate_bps ~packet_size ~active =
  assert (rate_bps > 0.0 && packet_size > 0);
  let bytes_per_s = rate_bps /. 8.0 in
  let credit = ref 0.0 in
  let last = ref (Engine.Sim.now sim) in
  let refill () =
    let now = Engine.Sim.now sim in
    if active () then credit := !credit +. ((now -. !last) *. bytes_per_s);
    last := now
  in
  let take_impl t =
    refill ();
    let need = float_of_int packet_size in
    (* The epsilon absorbs float rounding at the credit boundary; without
       it a wakeup can land infinitesimally short of a packet and respawn
       itself forever at the same virtual instant. *)
    if !credit >= need -. 1e-6 then begin
      credit := Float.max 0.0 (!credit -. need);
      true
    end
    else begin
      if active () then begin
        let wait = ((need -. !credit) /. bytes_per_s) +. 1e-6 in
        Engine.Sim.post_after sim (Float.max wait 1e-6) (fun () ->
            t.notify ())
      end;
      false
    end
  in
  take_impl

let cbr ~sim ~rate_bps ~packet_size () =
  {
    take_impl = shaped ~sim ~rate_bps ~packet_size ~active:(fun () -> true);
    notify = ignore;
    offered = 0;
  }

let queued () =
  let backlog = ref 0 in
  let t =
    {
      take_impl =
        (fun _ ->
          if !backlog > 0 then begin
            decr backlog;
            true
          end
          else false);
      notify = ignore;
      offered = 0;
    }
  in
  let push n =
    assert (n >= 0);
    if n > 0 then begin
      backlog := !backlog + n;
      t.notify ()
    end
  in
  (t, push)

let on_off ~sim ~rng ~mean_on ~mean_off ~rate_bps ~packet_size () =
  assert (mean_on > 0.0 && mean_off > 0.0);
  let on = ref true in
  let t_ref = ref None in
  let rec toggle () =
    on := not !on;
    let mean = if !on then mean_on else mean_off in
    Engine.Sim.post_after sim (Engine.Dist.exponential rng ~mean) toggle;
    if !on then
      match !t_ref with Some t -> t.notify () | None -> ()
  in
  Engine.Sim.post_after sim (Engine.Dist.exponential rng ~mean:mean_on) toggle;
  let take_impl = shaped ~sim ~rate_bps ~packet_size ~active:(fun () -> !on) in
  let t = { take_impl; notify = ignore; offered = 0 } in
  t_ref := Some t;
  t
