module Serial = Packet.Serial
module Runs = Packet.Runs

(* Run-length hole tracking: holes are a run set ([Packet.Runs]) of
   half-open [lo, hi) runs over absolute positions, and the per-hole
   "packets seen after" counter is virtualised through a global epoch —
   every new-maximum packet bumps [epoch] once instead of touching every
   hole, and a run tagged with birth epoch [b] has seen [epoch - b + 1]
   later packets.  Births are non-decreasing along the set (a late
   arrival that splits a run leaves both halves its birth), so ripe
   holes are always a prefix, promoted a run at a time: O(ripe runs),
   however many numbers they hold.  The per-hole list implementation
   lives on as the differential oracle in test/loss_history_ref.ml.

   Absolute positions are anchored at the highest sequence seen:
   [abs = max_abs + Serial.diff s max_seq]. *)

type event = { start_time : float; start_seq : Serial.t }

(* RFC 3448 §5.1: a hole is lost once NDUPACK = 3 later packets have
   arrived; §5.4: the average runs over the last n = 8 intervals. *)
let ndup = 3
let history = 8

type t = {
  discount : bool;
  cost : Stats.Cost.t option;
  mutable max_seq : Serial.t option;
  mutable max_abs : int;
  holes : Runs.t;  (* tagged with the epoch at creation *)
  mutable epoch : int;  (* new-maximum packets accounted so far *)
  mutable hole_count : int;  (* sum of run widths *)
  mutable intervals : float list;  (* newest first, length <= history *)
  mutable current : event option;
  mutable events : int;
  mutable losses : int;
  mutable marks : int;
  mutable seen : int;
}

let create ?(discount = true) ?cost () =
  {
    discount;
    cost;
    max_seq = None;
    max_abs = 0;
    holes = Runs.create ();
    epoch = 0;
    hole_count = 0;
    intervals = [];
    current = None;
    events = 0;
    losses = 0;
    marks = 0;
    seen = 0;
  }

let charge t name =
  match t.cost with Some c -> Stats.Cost.charge c name | None -> ()

(* A count is passed to [Stats.Cost.charge] only once a cost model is
   known to be attached: [~ops:n] boxes [Some n]. *)
let charge_n t n name =
  match t.cost with Some c -> Stats.Cost.charge c ~ops:n name | None -> ()

let watermark t =
  match t.cost with
  | Some c ->
      Stats.Cost.watermark c "lh.entries"
        (t.hole_count + List.length t.intervals)
  | None -> ()

(* The weights of RFC 3448 §5.4 for n = 8. *)
let[@vtp.hot] weight i =
  match i with
  | 0 | 1 | 2 | 3 -> 1.0
  | 4 -> 0.8
  | 5 -> 0.6
  | 6 -> 0.4
  | _ -> 0.2

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
        (if List.length t.intervals >= history then
           len :: List.filteri (fun i _ -> i < history - 1) t.intervals
         else len :: t.intervals);
      t.current <- Some { start_time = time; start_seq = seq };
      t.events <- t.events + 1
  | None ->
      t.current <- Some { start_time = time; start_seq = seq };
      t.events <- t.events + 1

(* Marks of one report share [seq], [arrival] and [rtt]: the first
   opens or joins an event, and every later one joins it too (same
   arrival, so within any RTT >= 0 of the event start), so the rest
   only count. *)
let on_congestion_mark t ~marks ~seq ~arrival ~rtt =
  t.marks <- t.marks + marks;
  charge_n t marks "lh.ce_mark";
  note_congestion_event t ~seq ~time:arrival ~rtt

let set_first_interval t len =
  if t.intervals = [] && len > 0.0 then t.intervals <- [ len ]

(* Handover discontinuity: outstanding holes and the open event belong
   to the old path, so they are forgotten wholesale; the closed history
   collapses to the single synthetic interval [len].  Sequence tracking
   ([max_seq]/[max_abs]) is untouched — numbering continues across the
   migration. *)
let reseed t len =
  Runs.clear t.holes;
  t.hole_count <- 0;
  t.current <- None;
  t.intervals <- (if len > 0.0 then [ len ] else [])

let anchor t =
  match t.max_seq with
  | Some m -> m
  | None -> invalid_arg "Loss_history: holes tracked before any packet"

let ser_of t a = Serial.add (anchor t) (a - t.max_abs)

(* A run born at epoch [b] has [epoch - b + 1] confirming later
   packets (the packet that created it counts as the first). *)
let[@vtp.hot] ripe t i =
  t.epoch - Array.unsafe_get t.holes.Runs.tag i + 1 >= ndup

(* Ripe runs are a prefix (births are non-decreasing along the set):
   promote each whole, lowest first, by advancing the front.  The
   numbers of a run share [arrival] and [rtt], so for a finite arrival
   and [rtt >= 0] the first opens or joins a loss event and every later
   one joins it: they only count. *)
let promote_ripe_holes t ~arrival ~rtt =
  let h = t.holes in
  while h.Runs.fst < h.Runs.len && ripe t h.Runs.fst do
    let lo = h.Runs.lo.(h.Runs.fst) in
    let w = h.Runs.hi.(h.Runs.fst) - lo in
    t.losses <- t.losses + w;
    charge_n t w "lh.loss";
    note_congestion_event t ~seq:(ser_of t lo) ~time:arrival ~rtt;
    t.hole_count <- t.hole_count - w;
    Runs.drop_first h
  done

let on_packet t ~seq ~arrival ~rtt ~is_retx =
  if not is_retx then begin
    charge t "lh.update";
    t.seen <- t.seen + 1;
    (match t.max_seq with
    | None -> t.max_seq <- Some seq
    | Some m when Serial.( > ) seq m ->
        (* Every pre-existing hole saw one more subsequent packet; the
           epoch bump accounts for all of them at once.  The skipped
           numbers become one fresh run — the arriving packet itself
           lies beyond it, so it counts as the first confirmation. *)
        t.epoch <- t.epoch + 1;
        let d = Serial.diff seq m in
        if d > 1 then begin
          Runs.add t.holes (t.max_abs + 1) (t.max_abs + d) ~tag:t.epoch;
          t.hole_count <- t.hole_count + (d - 1);
          charge_n t (d - 1) "lh.hole"
        end;
        t.max_abs <- t.max_abs + d;
        t.max_seq <- Some seq
    | Some m ->
        (* Late arrival filling a hole: it was never lost. *)
        let a = t.max_abs + Serial.diff seq m in
        if Runs.remove t.holes a (a + 1) then
          t.hole_count <- t.hole_count - 1);
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
      open_interval t :: List.filteri (fun i _ -> i < history - 1) closed
    else closed
  in
  match seq_terms with
  | [] -> infinity
  | terms ->
      charge_n t (List.length terms) "lh.rate_calc";
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
          let w = weight i *. discount_factor i in
          num := !num +. (w *. len);
          den := !den +. w)
        terms;
      if Float.equal !den 0.0 then infinity else !num /. !den

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
let holes_held t = Runs.length t.holes
