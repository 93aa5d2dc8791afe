type stats = {
  mutable offered : int;
  mutable accepted : int;
  mutable dropped : int;
  mutable dropped_green : int;
  mutable dropped_nongreen : int;
  mutable dequeued : int;
  mutable ce_marked : int;
}

let fresh_stats () =
  {
    offered = 0;
    accepted = 0;
    dropped = 0;
    dropped_green = 0;
    dropped_nongreen = 0;
    dequeued = 0;
    ce_marked = 0;
  }

type discipline =
  | Droptail of { capacity : int }
  | Red_q of { capacity : int; ecn : bool; red : Red.t }
  | Rio of {
      capacity : int;
      red_in : Red.t;
      red_out : Red.t;
      mutable green_pkts : int;
    }

type t = {
  disc : discipline;
  fifo : Frame.t Engine.Ring.t;
  mutable bytes : int;
  st : stats;
}

let droptail ~capacity_pkts =
  assert (capacity_pkts > 0);
  {
    disc = Droptail { capacity = capacity_pkts };
    fifo = Engine.Ring.create ~dummy:Frame.dummy;
    bytes = 0;
    st = fresh_stats ();
  }

let red ?capacity_pkts ?(ecn = false) ~params ~rng () =
  let capacity =
    match capacity_pkts with
    | Some c -> c
    | None -> int_of_float (2.5 *. params.Red.max_th)
  in
  {
    disc = Red_q { capacity; ecn; red = Red.create params ~rng };
    fifo = Engine.Ring.create ~dummy:Frame.dummy;
    bytes = 0;
    st = fresh_stats ();
  }

let rio ?capacity_pkts ~in_params ~out_params ~rng () =
  let capacity =
    match capacity_pkts with
    | Some c -> c
    | None -> int_of_float (2.5 *. in_params.Red.max_th)
  in
  {
    disc =
      Rio
        {
          capacity;
          red_in = Red.create in_params ~rng;
          red_out = Red.create out_params ~rng:(Engine.Rng.split rng);
          green_pkts = 0;
        };
    fifo = Engine.Ring.create ~dummy:Frame.dummy;
    bytes = 0;
    st = fresh_stats ();
  }

let length_pkts t = Engine.Ring.length t.fifo

let length_bytes t = t.bytes

let stats t = t.st

let record_drop t (frame : Frame.t) =
  t.st.dropped <- t.st.dropped + 1;
  match frame.mark with
  | Mark.Green -> t.st.dropped_green <- t.st.dropped_green + 1
  | Mark.Red | Mark.Best_effort ->
      t.st.dropped_nongreen <- t.st.dropped_nongreen + 1

let accept t frame =
  Engine.Ring.push t.fifo frame;
  t.bytes <- t.bytes + frame.Frame.size;
  t.st.accepted <- t.st.accepted + 1;
  (match t.disc with
  | Rio r when Mark.equal frame.Frame.mark Mark.Green ->
      r.green_pkts <- r.green_pkts + 1
  | Rio _ | Droptail _ | Red_q _ -> ());
  true

(* An early congestion signal: mark-and-accept when both the queue and
   the frame are ECN-capable, drop otherwise (RFC 3168 semantics). *)
let congest t ~ecn frame =
  if ecn && frame.Frame.ect then begin
    frame.Frame.ce <- true;
    t.st.ce_marked <- t.st.ce_marked + 1;
    accept t frame
  end
  else begin
    record_drop t frame;
    false
  end

let enqueue t ~now frame =
  t.st.offered <- t.st.offered + 1;
  let qlen = Engine.Ring.length t.fifo in
  match t.disc with
  | Droptail { capacity } ->
      if qlen >= capacity then begin
        record_drop t frame;
        false
      end
      else accept t frame
  | Red_q { capacity; ecn; red } ->
      if qlen >= capacity then begin
        record_drop t frame;
        false
      end
      else begin
        match Red.decide red ~now ~qlen with
        | `Drop -> congest t ~ecn frame
        | `Accept -> accept t frame
      end
  | Rio r ->
      if qlen >= r.capacity then begin
        record_drop t frame;
        false
      end
      else begin
        (* Green packets are judged against green occupancy only; the
           rest against total occupancy.  Both estimators are advanced on
           every arrival so their averages track the shared buffer. *)
        let verdict =
          match frame.Frame.mark with
          | Mark.Green ->
              ignore (Red.decide r.red_out ~now ~qlen);
              Red.decide r.red_in ~now ~qlen:r.green_pkts
          | Mark.Red | Mark.Best_effort ->
              ignore (Red.decide r.red_in ~now ~qlen:r.green_pkts);
              Red.decide r.red_out ~now ~qlen
        in
        match verdict with
        | `Drop ->
            record_drop t frame;
            false
        | `Accept -> accept t frame
      end

let dequeue t ~now =
  if Engine.Ring.is_empty t.fifo then None
  else begin
    let frame = Engine.Ring.pop t.fifo in
    t.bytes <- t.bytes - frame.Frame.size;
    t.st.dequeued <- t.st.dequeued + 1;
    (match t.disc with
    | Rio r when Mark.equal frame.Frame.mark Mark.Green ->
        r.green_pkts <- r.green_pkts - 1
    | Rio _ | Droptail _ | Red_q _ -> ());
    if Engine.Ring.is_empty t.fifo then begin
      match t.disc with
      | Red_q { red; _ } -> Red.note_idle_start red ~now
      | Rio r ->
          Red.note_idle_start r.red_in ~now;
          Red.note_idle_start r.red_out ~now
      | Droptail _ -> ()
    end;
    Some frame
  end
