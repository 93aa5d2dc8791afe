module Serial = Packet.Serial

(* [lo; lo+1; …; hi-1], empty if [lo >= hi]: the list [Serial.range]
   built before it left [lib/]. *)
let serial_range lo hi =
  let n = Serial.diff hi lo in
  if n <= 0 then [] else List.init n (fun i -> Serial.add lo i)

type hole = { seq : Serial.t; mutable after : int }

type event = { start_time : float; start_seq : Serial.t }

type t = {
  ndup : int;
  history : int;
  discount : bool;
  cost : Stats.Cost.t option;
  mutable max_seq : Serial.t option;
  mutable holes : hole list;  (* ascending seq *)
  mutable intervals : float list;  (* newest first, length <= history *)
  mutable current : event option;
  mutable events : int;
  mutable losses : int;
  mutable marks : int;
  mutable seen : int;
}

let create ?(ndup = 3) ?(history = 8) ?(discount = true) ?cost () =
  assert (ndup >= 1 && history >= 1);
  {
    ndup;
    history;
    discount;
    cost;
    max_seq = None;
    holes = [];
    intervals = [];
    current = None;
    events = 0;
    losses = 0;
    marks = 0;
    seen = 0;
  }

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let watermark t =
  match t.cost with
  | Some c ->
      Stats.Cost.watermark c "lh.entries"
        (List.length t.holes + List.length t.intervals)
  | None -> ()

(* The weights of RFC 3448 §5.4 for n = 8; for other history depths we
   keep full weight on the newer half and taper linearly on the older. *)
let[@vtp.hot] weight ~history i =
  if history = 8 then
    match i with
    | 0 | 1 | 2 | 3 -> 1.0
    | 4 -> 0.8
    | 5 -> 0.6
    | 6 -> 0.4
    | _ -> 0.2
  else begin
    let half = history / 2 in
    if i < half then 1.0
    else
      float_of_int (history - i) /. float_of_int (history - half + 1)
  end

(* Shared event machinery: a congestion signal (drop or ECN mark) at
   [seq]/[time] joins the current loss event if within one RTT of its
   start, otherwise closes the running interval and opens a new event. *)
let note_congestion_event t ~seq ~time ~rtt =
  match t.current with
  | Some ev when time -. ev.start_time <= rtt ->
      (* Same loss event: TCP would halve only once for this window. *)
      ()
  | Some ev ->
      (* Close the interval that ran from the previous event to this one
         (length counted in sequence space). *)
      let len = float_of_int (Stdlib.max 1 (Serial.diff seq ev.start_seq)) in
      t.intervals <-
        (if List.length t.intervals >= t.history then
           len :: List.filteri (fun i _ -> i < t.history - 1) t.intervals
         else len :: t.intervals);
      t.current <- Some { start_time = time; start_seq = seq };
      t.events <- t.events + 1
  | None ->
      t.current <- Some { start_time = time; start_seq = seq };
      t.events <- t.events + 1

let record_loss t ~seq ~time ~rtt =
  t.losses <- t.losses + 1;
  charge t "lh.loss";
  note_congestion_event t ~seq ~time ~rtt

let on_congestion_mark t ~seq ~arrival ~rtt =
  t.marks <- t.marks + 1;
  charge t "lh.ce_mark";
  note_congestion_event t ~seq ~time:arrival ~rtt

let set_first_interval t len =
  if t.intervals = [] && len > 0.0 then t.intervals <- [ len ]

(* Handover discontinuity — must mirror [Loss_history.reseed] exactly
   (the differential suites drive both through migrations). *)
let reseed t len =
  t.holes <- [];
  t.current <- None;
  t.intervals <- (if len > 0.0 then [ len ] else [])

let promote_ripe_holes t ~arrival ~rtt =
  let ripe, pending = List.partition (fun h -> h.after >= t.ndup) t.holes in
  t.holes <- pending;
  List.iter (fun h -> record_loss t ~seq:h.seq ~time:arrival ~rtt) ripe

let on_packet t ~seq ~arrival ~rtt ~is_retx =
  if not is_retx then begin
    charge t "lh.update";
    t.seen <- t.seen + 1;
    (match t.max_seq with
    | None -> t.max_seq <- Some seq
    | Some m when Serial.( > ) seq m ->
        (* New holes for every skipped number; every pre-existing hole
           saw one more subsequent packet. *)
        List.iter (fun h -> h.after <- h.after + 1) t.holes;
        let skipped = serial_range (Serial.succ m) seq in
        (* The arriving packet itself lies beyond each fresh hole, so it
           counts as the first confirming packet (after = 1). *)
        let fresh =
          List.map
            (fun s ->
              charge t "lh.hole";
              { seq = s; after = 1 })
            skipped
        in
        t.holes <- t.holes @ fresh;
        t.max_seq <- Some seq
    | Some _ ->
        (* Late arrival filling a hole: it was never lost. *)
        t.holes <- List.filter (fun h -> not (Serial.equal h.seq seq)) t.holes);
    promote_ripe_holes t ~arrival ~rtt;
    watermark t
  end

let open_interval t =
  match (t.current, t.max_seq) with
  | Some ev, Some m -> float_of_int (Stdlib.max 0 (Serial.diff m ev.start_seq))
  | (None | Some _), _ -> 0.0

let mean_of t ~with_open =
  (* Weighted mean per §5.4; closed intervals are newest-first.  With
     [with_open], the open interval takes index 0 and shifts the closed
     ones, dropping the oldest. *)
  let closed = t.intervals in
  let seq_terms =
    if with_open then
      open_interval t :: List.filteri (fun i _ -> i < t.history - 1) closed
    else closed
  in
  match seq_terms with
  | [] -> infinity
  | terms ->
      charge t ~ops:(List.length terms) "lh.rate_calc";
      (* §5.5 history discounting: when the open interval dominates, old
         intervals' influence is reduced so the rate can rise quickly
         after a long loss-free period. *)
      let discount_factor =
        if (not t.discount) || not with_open then fun _ -> 1.0
        else begin
          let i0 = open_interval t in
          let closed_mean =
            match closed with
            | [] -> 0.0
            | l ->
                List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
          in
          if closed_mean > 0.0 && i0 > 2.0 *. closed_mean then begin
            let df = Float.max 0.25 (2.0 *. closed_mean /. i0) in
            fun i -> if i = 0 then 1.0 else df
          end
          else fun _ -> 1.0
        end
      in
      let num = ref 0.0 and den = ref 0.0 in
      List.iteri
        (fun i len ->
          let w = weight ~history:t.history i *. discount_factor i in
          num := !num +. (w *. len);
          den := !den +. w)
        terms;
      if !den = 0.0 then infinity else !num /. !den

let mean_interval t =
  if t.intervals = [] && t.current = None then infinity
  else Float.max (mean_of t ~with_open:false) (mean_of t ~with_open:true)

let loss_event_rate t =
  let m = mean_interval t in
  if Float.is_finite m && m > 0.0 then Float.min 1.0 (1.0 /. m) else 0.0

let loss_events t = t.events
let losses t = t.losses
let congestion_marks t = t.marks
let packets_seen t = t.seen
let max_seq t = t.max_seq
let closed_intervals t = t.intervals
