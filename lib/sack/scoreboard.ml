module Serial = Packet.Serial
module Runs = Packet.Runs

(* Run-length scoreboard: instead of one hashtable entry per in-flight
   sequence number, per-packet metadata (send times, size, retransmit
   count) lives in ring arrays indexed by an absolute position, and the
   SACKed / inferred-lost state lives in two sorted, coalesced,
   untagged run sets ([Packet.Runs]).  Feedback for a large-BDP window
   (tens of thousands of packets) then costs what it changes — the
   newly covered positions and the new dupthresh span — instead of the
   window's width or its number of holes.  The per-entry
   implementation lives on as the differential oracle in
   test/scoreboard_ref.ml.

   Sequence numbers are mapped to monotone absolute positions through
   an advancing anchor: [abs = una_abs + Serial.diff s snd_una].  The
   anchor moves only forward (cumulative ack, abandon), so positions
   never wrap even though serials do. *)

type t = {
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  (* ring arrays indexed by [abs land mask]; live slots are exactly
     [una_abs, nxt_abs) *)
  mutable first_sent : float array;
  mutable last_sent : float array;
  mutable meta : int array;  (* size lor (retx lsl retx_shift) *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable una_abs : int;
  mutable nxt_abs : int;
  mutable snd_una : Serial.t;
  mutable snd_nxt : Serial.t;
  sacked : Runs.t;
  lost : Runs.t;
  (* Incremental loss inference.  [frontier] is the highest dupthresh
     point already processed; it only rises.  Every tracked position
     below it is SACKed, lost, or a repair in flight: retransmitted
     since it was marked lost, and queued in [repairs].  A repair is
     presumed lost again only once something sent more than [reo_wnd]
     after it has been delivered (RFC 8985 RACK).  [newest_xmit.(0)] is
     the latest last-transmission time of any position acked or SACKed
     so far: a one-cell float array, because a mutable float in this
     mixed record would box on every write.
     [repairs] is a FIFO ring in send order, holding
     [Array.length repairs / 2] entries (a power of two, or none until
     the first repair).  Slot [k] keeps a position at [2k] and, at
     [2k + 1], its retransmission count when queued, which tells a live
     entry from one a later retransmission superseded; [repair_head] is
     the head slot and [repair_n] the entries held. *)
  mutable frontier : int;
  newest_xmit : float array;
  mutable repairs : int array;
  mutable repair_head : int;
  mutable repair_n : int;
  mutable unsacked_bytes : int;
  mutable sent : int;
  mutable retx : int;
  mutable acked : int;
  mutable expired : int;
  (* reusable per-feedback scratch runs: the clipped SACK blocks
     (phase 2) and the freshly inferred loss runs (phase 3) of
     [iter_feedback] — per-call lists here would be the last
     allocations on the feedback fast path *)
  mutable scr_lo : int array;
  mutable scr_hi : int array;
}

let retx_shift = 30
let size_mask = (1 lsl retx_shift) - 1

(* A hole is lost once 3 SACKed numbers lie above it: the SACK
   analogue of TCP's three duplicate ACKs. *)
let dupthresh = 3

let create ?(capacity = 16) ?cost ?trace () =
  (* Round the ring up to a power of two.  It starts small, because
     most flows keep a few packets in flight and an idle flow should
     cost little; it doubles on demand, and large-BDP senders pass their
     expected window so steady state never pays the doubling copies. *)
  let cap = ref 16 in
  while !cap < capacity do
    cap := 2 * !cap
  done;
  let cap = !cap in
  {
    cost;
    trace;
    first_sent = Array.make cap 0.0;
    last_sent = Array.make cap 0.0;
    meta = Array.make cap 0;
    mask = cap - 1;
    una_abs = 0;
    nxt_abs = 0;
    snd_una = Serial.zero;
    snd_nxt = Serial.zero;
    sacked = Runs.create_untagged ();
    lost = Runs.create_untagged ();
    frontier = 0;
    newest_xmit = [| Float.neg_infinity |];
    repairs = [||];
    repair_head = 0;
    repair_n = 0;
    unsacked_bytes = 0;
    sent = 0;
    retx = 0;
    acked = 0;
    expired = 0;
    scr_lo = Array.make 8 0;
    scr_hi = Array.make 8 0;
  }

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let[@vtp.hot] abs_of t s = t.una_abs + Serial.diff s t.snd_una

let ser_of t a = Serial.add t.snd_una (a - t.una_abs)

let grow t =
  let ncap = 2 * (t.mask + 1) in
  let nmask = ncap - 1 in
  let nfs = Array.make ncap 0.0
  and nls = Array.make ncap 0.0
  and nmeta = Array.make ncap 0 in
  for a = t.una_abs to t.nxt_abs - 1 do
    nfs.(a land nmask) <- t.first_sent.(a land t.mask);
    nls.(a land nmask) <- t.last_sent.(a land t.mask);
    nmeta.(a land nmask) <- t.meta.(a land t.mask)
  done;
  t.first_sent <- nfs;
  t.last_sent <- nls;
  t.meta <- nmeta;
  t.mask <- nmask

(* Append a repair to the tail of the FIFO ring, doubling it when full
   (the first repair allocates it). *)
let push_repair t a count =
  let cap = Array.length t.repairs / 2 in
  if t.repair_n = cap then begin
    let ncap = Stdlib.max 8 (2 * cap) in
    let nr = Array.make (2 * ncap) 0 in
    for k = 0 to t.repair_n - 1 do
      let j = 2 * ((t.repair_head + k) land (cap - 1)) in
      nr.(2 * k) <- t.repairs.(j);
      nr.((2 * k) + 1) <- t.repairs.(j + 1)
    done;
    t.repairs <- nr;
    t.repair_head <- 0
  end;
  let mask = (Array.length t.repairs / 2) - 1 in
  let j = 2 * ((t.repair_head + t.repair_n) land mask) in
  t.repairs.(j) <- a;
  t.repairs.(j + 1) <- count;
  t.repair_n <- t.repair_n + 1

let[@vtp.hot] on_send t ~seq ~now ~size ~is_retx =
  charge t "send.scoreboard.send";
  if is_retx then begin
    let a = abs_of t seq in
    if a < t.una_abs || a >= t.nxt_abs then
      invalid_arg "Scoreboard.on_send: retransmit of unknown seq";
    let i = a land t.mask in
    t.last_sent.(i) <- now;
    t.meta.(i) <- t.meta.(i) + (1 lsl retx_shift);
    ignore (Runs.remove t.lost a (a + 1) : bool);
    if a < t.frontier then push_repair t a (t.meta.(i) lsr retx_shift);
    t.retx <- t.retx + 1;
    if Trace.Sink.on t.trace then
      Trace.Sink.emit t.trace
        (Trace.Event.Retransmit { seq; count = t.meta.(i) lsr retx_shift })
  end
  else begin
    if not (Serial.equal seq t.snd_nxt) then
      invalid_arg "Scoreboard.on_send: new data out of order";
    if t.nxt_abs - t.una_abs > t.mask then grow t;
    (* [i <= mask < length] by construction, so the masked ring writes
       need no bounds checks — this is the per-packet fast path. *)
    let i = t.nxt_abs land t.mask in
    Array.unsafe_set t.first_sent i now;
    Array.unsafe_set t.last_sent i now;
    Array.unsafe_set t.meta i (size land size_mask);
    t.nxt_abs <- t.nxt_abs + 1;
    t.snd_nxt <- Serial.succ seq;
    t.sent <- t.sent + 1;
    t.unsacked_bytes <- t.unsacked_bytes + size
  end

let next_seq t = t.snd_nxt

let una t = t.snd_una

let pos = abs_of

let size_at t a = t.meta.(a land t.mask) land size_mask

type feedback_summary = {
  fb_acked : int;
  fb_sacked : int;
  fb_lost : int;
}

(* The streaming feedback digest.  Covers are pushed to the callbacks in
   globally ascending sequence order without materialising cover records
   or lists: every cumulative-ack cover lies below the advanced
   [una_abs] and every SACK cover at or above it, and processing blocks
   in ascending order of clipped lower bound keeps the SACK emissions
   ascending too (a block's range is merged into the run set before the
   next block is scanned, so a later block can only uncover positions
   above everything an earlier one emitted).  The emitted set and the
   final run state are both order-independent, which keeps this
   byte-compatible with the list-building wrapper below.

   Every walk is a top-level loop over the run arrays: no closure is
   built per call or per gap. *)
let ensure_scr t n =
  let cap = Array.length t.scr_lo in
  if n > cap then begin
    let ncap = Stdlib.max n (2 * cap) in
    let nlo = Array.make ncap 0 and nhi = Array.make ncap 0 in
    Array.blit t.scr_lo 0 nlo 0 cap;
    Array.blit t.scr_hi 0 nhi 0 cap;
    t.scr_lo <- nlo;
    t.scr_hi <- nhi
  end

(* Report every position of [a, stop) as a cover through [on], folding
   its last transmission time into [newest_xmit]. *)
let[@vtp.hot] rec emit_covers t on a stop =
  if a < stop then begin
    let i = a land t.mask in
    let meta = Array.unsafe_get t.meta i in
    t.unsacked_bytes <- t.unsacked_bytes - (meta land size_mask);
    let xmit = Array.unsafe_get t.last_sent i in
    if xmit > Array.unsafe_get t.newest_xmit 0 then
      Array.unsafe_set t.newest_xmit 0 xmit;
    on ~seq:(ser_of t a)
      ~sent_at:(Array.unsafe_get t.first_sent i)
      ~was_retx:(meta lsr retx_shift > 0);
    emit_covers t on (a + 1) stop
  end

(* Cover every not-yet-SACKed position of [a, h), ascending; [i] is the
   first SACKed run ending after [a].  Returns [n] plus the covers. *)
let[@vtp.hot] rec cover_gaps t on i a h n =
  let s = t.sacked in
  if a >= h then n
  else if i < s.Runs.len && s.Runs.lo.(i) <= a then
    cover_gaps t on (i + 1) (Stdlib.max a s.Runs.hi.(i)) h n
  else begin
    let stop = if i >= s.Runs.len then h else Stdlib.min h s.Runs.lo.(i) in
    emit_covers t on a stop;
    cover_gaps t on i stop h (n + stop - a)
  end

(* Clip each block to the window and insertion-sort the results into
   the scratch by lower bound (stable; real feedback carries at most a
   handful of blocks).  Returns the number kept. *)
let[@vtp.hot] rec clip_blocks t blocks n =
  match blocks with
  | [] -> n
  | b :: rest ->
      let l = Stdlib.max (abs_of t b.Packet.Header.block_start) t.una_abs in
      let h = Stdlib.min (abs_of t b.Packet.Header.block_end) t.nxt_abs in
      if l < h then begin
        ensure_scr t (n + 1);
        let j = insert_slot t l n in
        t.scr_lo.(j) <- l;
        t.scr_hi.(j) <- h;
        clip_blocks t rest (n + 1)
      end
      else clip_blocks t rest n

(* Shift scratch entries above [l] up one slot, from index [j] down;
   returns the free slot. *)
and[@vtp.hot] insert_slot t l j =
  if j > 0 && t.scr_lo.(j - 1) > l then begin
    t.scr_lo.(j) <- t.scr_lo.(j - 1);
    t.scr_hi.(j) <- t.scr_hi.(j - 1);
    insert_slot t l (j - 1)
  end
  else j

(* Append the fresh loss run [l, h) to the scratch at index [nf],
   extending the last run when it touches; returns the new count. *)
let[@vtp.hot] stage t nf l h =
  if nf > 0 && t.scr_hi.(nf - 1) = l then begin
    t.scr_hi.(nf - 1) <- h;
    nf
  end
  else begin
    ensure_scr t (nf + 1);
    t.scr_lo.(nf) <- l;
    t.scr_hi.(nf) <- h;
    nf + 1
  end

(* Stage the parts of [a, h) not already lost; [j] is the first lost
   run ending after [a]. *)
let[@vtp.hot] rec stage_unlost t j a h nf =
  let l = t.lost in
  if a >= h then nf
  else if j < l.Runs.len && l.Runs.lo.(j) <= a then
    stage_unlost t (j + 1) (Stdlib.max a l.Runs.hi.(j)) h nf
  else begin
    let stop = if j >= l.Runs.len then h else Stdlib.min h l.Runs.lo.(j) in
    stage_unlost t j stop h (stage t nf a stop)
  end

(* Stage every position of [a, h) that is neither SACKed nor lost — the
   walk above the frontier; [i] is the first SACKed run ending after
   [a]. *)
let[@vtp.hot] rec stage_gaps t i a h nf =
  let s = t.sacked in
  if a >= h then nf
  else if i < s.Runs.len && s.Runs.lo.(i) <= a then
    stage_gaps t (i + 1) (Stdlib.max a s.Runs.hi.(i)) h nf
  else begin
    let stop = if i >= s.Runs.len then h else Stdlib.min h s.Runs.lo.(i) in
    stage_gaps t i stop h (stage_unlost t (Runs.seek t.lost a) a stop nf)
  end

(* Stage the single position [a] among the first [nf] scratch runs,
   keeping them sorted (repairs leave the FIFO in send order, which is
   nearly ascending). *)
let[@vtp.hot] stage_sorted t nf a =
  ensure_scr t (nf + 1);
  let j = insert_slot t a nf in
  t.scr_lo.(j) <- a;
  t.scr_hi.(j) <- a + 1;
  nf + 1

let[@vtp.hot] pop_repair t =
  t.repair_head <- (t.repair_head + 1) land ((Array.length t.repairs / 2) - 1);
  t.repair_n <- t.repair_n - 1

(* The walk below the frontier, over the repair FIFO from its head: pop
   the entries that are settled — acked, SACKed, retransmitted again
   since they were queued, or already lost by expiry — and stage lost
   the repairs sent more than [reo_wnd] before [newest_xmit]; stop at
   the first live repair that is not, since every entry behind it was
   sent no earlier.  The [una] test comes first: the ring slot of an
   acked position may already hold a newer one. *)
let[@vtp.hot] rec walk_repairs t reo_wnd nf =
  if t.repair_n = 0 then nf
  else begin
    let j = 2 * t.repair_head in
    let a = t.repairs.(j) in
    if
      a < t.una_abs
      || t.meta.(a land t.mask) lsr retx_shift <> t.repairs.(j + 1)
      || Runs.mem t.sacked a || Runs.mem t.lost a
    then begin
      pop_repair t;
      walk_repairs t reo_wnd nf
    end
    else if t.newest_xmit.(0) > t.last_sent.(a land t.mask) +. reo_wnd
    then begin
      pop_repair t;
      walk_repairs t reo_wnd (stage_sorted t nf a)
    end
    else nf
  end

(* Merge the clipped blocks [k, nclip) of the scratch into the SACKed
   set, covering their gaps; returns [n] plus the covers. *)
let[@vtp.hot] rec merge_blocks t on k nclip n =
  if k >= nclip then n
  else begin
    let l = t.scr_lo.(k) and h = t.scr_hi.(k) in
    let n = cover_gaps t on (Runs.seek t.sacked l) l h n in
    ignore (Runs.remove t.lost l h : bool);
    Runs.cover t.sacked l h;
    merge_blocks t on (k + 1) nclip n
  end

(* Report the staged fresh losses [k, nfresh) ascending; returns [n]
   plus their count. *)
let[@vtp.hot] rec report_lost t on_lost k nfresh n =
  if k >= nfresh then n
  else begin
    for a = t.scr_lo.(k) to t.scr_hi.(k) - 1 do
      on_lost (ser_of t a)
    done;
    report_lost t on_lost (k + 1) nfresh (n + t.scr_hi.(k) - t.scr_lo.(k))
  end

let[@vtp.hot] iter_feedback t ~cum_ack ~blocks ~reo_wnd ~on_ack ~on_sack
    ~on_lost =
  charge t "send.scoreboard.feedback";
  (* 1. Cumulative advance: every not-yet-SACKed position up to the
     (clipped) ack point is a fresh cover. *)
  let n_acked =
    if Serial.( > ) cum_ack t.snd_una then begin
      let target = Stdlib.min (abs_of t cum_ack) t.nxt_abs in
      let n =
        cover_gaps t on_ack (Runs.seek t.sacked t.una_abs) t.una_abs target 0
      in
      t.acked <- t.acked + (target - t.una_abs);
      Runs.trim_below t.sacked target;
      Runs.trim_below t.lost target;
      t.una_abs <- target;
      t.snd_una <- Serial.max t.snd_una (Serial.min cum_ack t.snd_nxt);
      n
    end
    else 0
  in
  (* 2. SACK coverage: the uncovered gaps of each (clipped) block are
     the newly SACKed positions; then the block merges into the run
     set in one splice. *)
  let n_sacked = merge_blocks t on_sack 0 (clip_blocks t blocks 0) 0 in
  (* 3. Loss inference, in two parts.  Below the frontier, the repair
     FIFO re-infers lost the repairs that something sent later has
     overtaken (the walk above).  From the frontier up, a position is
     lost once [dupthresh] SACKed positions lie above it, i.e.
     everything below the dupthresh-th highest SACKed point [p] that is
     neither SACKed nor already lost; [p] never falls while it is above
     [una], so only the gaps between the frontier and [p] are new.  The
     first part lies wholly below the second, so the fresh runs reach
     the scratch (phase 2 is done with it) in ascending order. *)
  let nf = walk_repairs t reo_wnd 0 in
  let p = Runs.kth_from_top t.sacked dupthresh in
  let nfresh =
    if p > t.una_abs then begin
      let above = Stdlib.max t.frontier t.una_abs in
      let nf = stage_gaps t (Runs.seek t.sacked above) above p nf in
      t.frontier <- Stdlib.max t.frontier p;
      nf
    end
    else nf
  in
  for k = 0 to nfresh - 1 do
    Runs.cover t.lost t.scr_lo.(k) t.scr_hi.(k)
  done;
  (* The reference walk marks from the top down; emit in the same
     descending order so traces stay byte-identical. *)
  if Trace.Sink.on t.trace then
    for k = nfresh - 1 downto 0 do
      for a = t.scr_hi.(k) - 1 downto t.scr_lo.(k) do
        Trace.Sink.emit t.trace
          (Trace.Event.Loss_inferred
             { seq = ser_of t a; by = Trace.Event.I_dupthresh })
      done
    done;
  let n_lost = report_lost t on_lost 0 nfresh 0 in
  { fb_acked = n_acked; fb_sacked = n_sacked; fb_lost = n_lost }

let lost_pending t =
  let acc = ref [] in
  for i = t.lost.Runs.len - 1 downto t.lost.Runs.fst do
    for a = t.lost.Runs.hi.(i) - 1 downto t.lost.Runs.lo.(i) do
      acc := ser_of t a :: !acc
    done
  done;
  !acc

let mark_expired t ~now ~timeout =
  (* The expired positions go through the feedback scratch (ascending);
     the common fire finds nothing expired and allocates nothing. *)
  let nfresh = ref 0 in
  Runs.iter_gaps t.sacked t.una_abs t.nxt_abs (fun gl gh ->
      Runs.iter_gaps t.lost gl gh (fun ll lh ->
          for a = ll to lh - 1 do
            if now -. t.last_sent.(a land t.mask) > timeout then begin
              ensure_scr t (!nfresh + 1);
              t.scr_lo.(!nfresh) <- a;
              incr nfresh;
              if Trace.Sink.on t.trace then
                Trace.Sink.emit t.trace
                  (Trace.Event.Loss_inferred
                     { seq = ser_of t a; by = Trace.Event.I_timeout })
            end
          done));
  t.expired <- t.expired + !nfresh;
  let acc = ref [] in
  for k = !nfresh - 1 downto 0 do
    let a = t.scr_lo.(k) in
    Runs.cover t.lost a (a + 1);
    acc := ser_of t a :: !acc
  done;
  !acc

let abandon_below t limit =
  let limit = Serial.min limit t.snd_nxt in
  if Serial.( > ) limit t.snd_una then begin
    let target = Stdlib.min (abs_of t limit) t.nxt_abs in
    Runs.iter_gaps t.sacked t.una_abs target (fun gl gh ->
        for a = gl to gh - 1 do
          t.unsacked_bytes <- t.unsacked_bytes - size_at t a
        done);
    Runs.trim_below t.sacked target;
    Runs.trim_below t.lost target;
    t.una_abs <- target;
    t.snd_una <- limit
  end

let tracked t a = a >= t.una_abs && a < t.nxt_abs

let retx_count t s =
  let a = abs_of t s in
  if tracked t a then t.meta.(a land t.mask) lsr retx_shift else 0

let status t s =
  let a = abs_of t s in
  if not (tracked t a) then `Untracked
  else if Runs.mem t.sacked a then `Sacked
  else if Runs.mem t.lost a then `Lost
  else `In_flight

let first_sent_at t s =
  let a = abs_of t s in
  if tracked t a then Some t.first_sent.(a land t.mask) else None

let outstanding t = t.nxt_abs - t.una_abs

let in_flight_bytes t = t.unsacked_bytes

let runs_held t = (Runs.length t.sacked, Runs.length t.lost)

let stats_sent t = t.sent
let stats_retx t = t.retx
let stats_acked t = t.acked
let stats_expired t = t.expired
