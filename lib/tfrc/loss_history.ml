module Serial = Packet.Serial

(* Run-length hole tracking: holes live in sorted parallel int arrays
   of half-open [lo, hi) runs over absolute positions, and the
   per-hole "packets seen after" counter is virtualised through a
   global epoch — every new-maximum packet bumps [epoch] once instead
   of touching every hole, and a run born at epoch [b] has seen
   [epoch - b + 1] later packets.  Births are non-decreasing along the
   array, so ripe holes are always a prefix and promotion is O(ripe).
   The per-hole list implementation lives on as the differential oracle
   in test/loss_history_ref.ml.

   Absolute positions are anchored at the highest sequence seen:
   [abs = max_abs + Serial.diff s max_seq]. *)

type event = { start_time : float; start_seq : Serial.t }

type t = {
  ndup : int;
  history : int;
  discount : bool;
  cost : Stats.Cost.t option;
  mutable max_seq : Serial.t option;
  mutable max_abs : int;
  (* hole runs, live in [h_fst, h_len) of the parallel arrays *)
  mutable h_lo : int array;
  mutable h_hi : int array;
  mutable h_born : int array;  (* epoch at creation *)
  mutable h_fst : int;
  mutable h_len : int;
  mutable epoch : int;  (* new-maximum packets accounted so far *)
  mutable hole_count : int;  (* sum of run widths *)
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
    max_abs = 0;
    h_lo = Array.make 8 0;
    h_hi = Array.make 8 0;
    h_born = Array.make 8 0;
    h_fst = 0;
    h_len = 0;
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
  t.h_fst <- 0;
  t.h_len <- 0;
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
let[@vtp.hot] ripe t i = t.epoch - Array.unsafe_get t.h_born i + 1 >= t.ndup

(* Ripe runs are a prefix (births are non-decreasing along the array):
   promote each of their positions to a loss, in ascending order, by
   advancing the front offset. *)
let promote_ripe_holes t ~arrival ~rtt =
  while t.h_fst < t.h_len && ripe t t.h_fst do
    let i = t.h_fst in
    for a = t.h_lo.(i) to t.h_hi.(i) - 1 do
      record_loss t ~seq:(ser_of t a) ~time:arrival ~rtt
    done;
    t.hole_count <- t.hole_count - (t.h_hi.(i) - t.h_lo.(i));
    t.h_fst <- i + 1
  done

(* Make room for one more run at the back. *)
let reserve t =
  let cap = Array.length t.h_lo in
  if t.h_len = cap then begin
    let live = t.h_len - t.h_fst in
    if t.h_fst > 0 then begin
      Array.blit t.h_lo t.h_fst t.h_lo 0 live;
      Array.blit t.h_hi t.h_fst t.h_hi 0 live;
      Array.blit t.h_born t.h_fst t.h_born 0 live
    end
    else begin
      let ncap = 2 * cap in
      let nlo = Array.make ncap 0
      and nhi = Array.make ncap 0
      and nborn = Array.make ncap 0 in
      Array.blit t.h_lo t.h_fst nlo 0 live;
      Array.blit t.h_hi t.h_fst nhi 0 live;
      Array.blit t.h_born t.h_fst nborn 0 live;
      t.h_lo <- nlo;
      t.h_hi <- nhi;
      t.h_born <- nborn
    end;
    t.h_fst <- 0;
    t.h_len <- live
  end

let append_run t l h =
  reserve t;
  t.h_lo.(t.h_len) <- l;
  t.h_hi.(t.h_len) <- h;
  t.h_born.(t.h_len) <- t.epoch;
  t.h_len <- t.h_len + 1;
  t.hole_count <- t.hole_count + (h - l)

(* Smallest live index whose run ends strictly after [a]. *)
let[@vtp.hot] rec seek_from t a lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get t.h_hi mid > a then seek_from t a lo mid
    else seek_from t a (mid + 1) hi

(* A late arrival fills one hole: remove the single position [a],
   splitting its run when it sits strictly inside. *)
let fill_hole t a =
  let i = seek_from t a t.h_fst t.h_len in
  if i < t.h_len && t.h_lo.(i) <= a then begin
    t.hole_count <- t.hole_count - 1;
    if t.h_hi.(i) - t.h_lo.(i) = 1 then begin
      Array.blit t.h_lo (i + 1) t.h_lo i (t.h_len - i - 1);
      Array.blit t.h_hi (i + 1) t.h_hi i (t.h_len - i - 1);
      Array.blit t.h_born (i + 1) t.h_born i (t.h_len - i - 1);
      t.h_len <- t.h_len - 1
    end
    else if t.h_lo.(i) = a then t.h_lo.(i) <- a + 1
    else if t.h_hi.(i) = a + 1 then t.h_hi.(i) <- a
    else begin
      (* split: both halves keep the birth epoch *)
      reserve t;
      let i = seek_from t a t.h_fst t.h_len in
      Array.blit t.h_lo i t.h_lo (i + 1) (t.h_len - i);
      Array.blit t.h_hi i t.h_hi (i + 1) (t.h_len - i);
      Array.blit t.h_born i t.h_born (i + 1) (t.h_len - i);
      t.h_len <- t.h_len + 1;
      t.h_hi.(i) <- a;
      t.h_lo.(i + 1) <- a + 1
    end
  end

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
          append_run t (t.max_abs + 1) (t.max_abs + d);
          charge_n t (d - 1) "lh.hole"
        end;
        t.max_abs <- t.max_abs + d;
        t.max_seq <- Some seq
    | Some m ->
        (* Late arrival filling a hole: it was never lost. *)
        fill_hole t (t.max_abs + Serial.diff seq m));
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
          let w = weight ~history:t.history i *. discount_factor i in
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
let holes_held t = t.h_len - t.h_fst
