module Serial = Packet.Serial

type entry = {
  seq : Serial.t;
  size : int;
  first_sent : float;
  mutable last_sent : float;
  mutable retx : int;
  mutable sacked : bool;
  mutable lost : bool;  (* inferred lost, retransmission due *)
  mutable passed : bool;  (* ever had [dupthresh] SACKed entries above *)
  mutable repair : bool;  (* retransmitted once [passed], not yet settled *)
}

type cover = {
  cov_seq : Serial.t;
  cov_sent_at : float;
  cov_was_retx : bool;
}

type feedback_result = {
  newly_acked : cover list;
  newly_sacked : cover list;
  newly_lost : Serial.t list;
  cum_advanced : bool;
}

type t = {
  dupthresh : int;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  tbl : (int, entry) Hashtbl.t;
  mutable snd_una : Serial.t;
  mutable snd_nxt : Serial.t;
  mutable newest_xmit : float;  (* latest last_sent of any covered entry *)
  mutable sent : int;
  mutable retx : int;
  mutable acked : int;
}

let create ?(dupthresh = 3) ?cost ?trace () =
  assert (dupthresh >= 1);
  {
    dupthresh;
    cost;
    trace;
    tbl = Hashtbl.create 256;
    snd_una = Serial.zero;
    snd_nxt = Serial.zero;
    newest_xmit = Float.neg_infinity;
    sent = 0;
    retx = 0;
    acked = 0;
  }

let charge t ?ops name =
  match t.cost with Some c -> Stats.Cost.charge c ?ops name | None -> ()

let key s = Serial.to_int s

let[@vtp.hot] find t s = Hashtbl.find_opt t.tbl (key s)

let[@vtp.hot] on_send t ~seq ~now ~size ~is_retx =
  charge t "send.scoreboard.send";
  if is_retx then begin
    match find t seq with
    | None -> invalid_arg "Scoreboard.on_send: retransmit of unknown seq"
    | Some e ->
        e.last_sent <- now;
        e.retx <- e.retx + 1;
        e.lost <- false;
        e.repair <- e.passed;
        t.retx <- t.retx + 1;
        if Trace.Sink.on t.trace then
          Trace.Sink.emit t.trace
            (Trace.Event.Retransmit { seq = e.seq; count = e.retx })
  end
  else begin
    if not (Serial.equal seq t.snd_nxt) then
      invalid_arg "Scoreboard.on_send: new data out of order";
    Hashtbl.replace t.tbl (key seq)
      {
        seq;
        size;
        first_sent = now;
        last_sent = now;
        retx = 0;
        sacked = false;
        lost = false;
        passed = false;
        repair = false;
      };
    t.snd_nxt <- Serial.succ seq;
    t.sent <- t.sent + 1
  end

let next_seq t = t.snd_nxt

let una t = t.snd_una

(* Every cover also advances the newest delivered transmission time. *)
let cover_of t (e : entry) =
  t.newest_xmit <- Float.max t.newest_xmit e.last_sent;
  { cov_seq = e.seq; cov_sent_at = e.first_sent; cov_was_retx = e.retx > 0 }

(* Entries between una and nxt in ascending sequence order. *)
let entries_in_order t =
  let n = Serial.diff t.snd_nxt t.snd_una in
  let rec collect i acc =
    if i < 0 then acc
    else begin
      let s = Serial.add t.snd_una i in
      match find t s with
      | Some e -> collect (i - 1) (e :: acc)
      | None -> collect (i - 1) acc
    end
  in
  if n <= 0 then [] else collect (n - 1) []

let on_feedback t ~cum_ack ~blocks ~reo_wnd =
  charge t "send.scoreboard.feedback";
  (* 1. Cumulative advance. *)
  let newly_acked = ref [] in
  let cum_advanced = Serial.( > ) cum_ack t.snd_una in
  if cum_advanced then begin
    Serial.iter_range
      (fun s ->
        match find t s with
        | Some e ->
            (* Entries already SACKed were reported as covered when the
               SACK arrived; don't surface them twice. *)
            if not e.sacked then newly_acked := cover_of t e :: !newly_acked;
            t.acked <- t.acked + 1;
            Hashtbl.remove t.tbl (key s)
        | None -> ())
      t.snd_una
      (Serial.min cum_ack t.snd_nxt);
    t.snd_una <- Serial.max t.snd_una (Serial.min cum_ack t.snd_nxt)
  end;
  (* 2. SACK coverage. *)
  let newly_sacked = ref [] in
  List.iter
    (fun (b : Packet.Header.sack_block) ->
      Serial.iter_range
        (fun s ->
          match find t s with
          | Some e when not e.sacked ->
              e.sacked <- true;
              e.lost <- false;
              e.repair <- false;
              newly_sacked := cover_of t e :: !newly_sacked
          | Some _ | None -> ())
        b.block_start b.block_end)
    blocks;
  (* 3. Loss inference.  Walk from highest to lowest sequence counting
     SACKed entries.  An uncovered entry with [dupthresh] SACKed ones
     above it is lost, unless it is a repair of an earlier such loss: a
     repair is lost once an entry last sent more than [reo_wnd] after it
     has been covered. *)
  let sacked_above = ref 0 in
  let newly_lost = ref [] in
  let span = Serial.diff t.snd_nxt t.snd_una in
  for i = span - 1 downto 0 do
    match find t (Serial.add t.snd_una i) with
    | Some e ->
        if e.sacked then incr sacked_above
        else begin
          if !sacked_above >= t.dupthresh then e.passed <- true;
          let lost_now =
            if e.repair then t.newest_xmit > e.last_sent +. reo_wnd
            else e.passed && not e.lost
          in
          if lost_now then begin
            e.lost <- true;
            e.repair <- false;
            newly_lost := e.seq :: !newly_lost;
            if Trace.Sink.on t.trace then
              Trace.Sink.emit t.trace
                (Trace.Event.Loss_inferred
                   { seq = e.seq; by = Trace.Event.I_dupthresh })
          end
        end
    | None -> ()
  done;
  let by_seq f a b = Serial.compare (f a) (f b) in
  {
    newly_acked = List.sort (by_seq (fun c -> c.cov_seq)) !newly_acked;
    newly_sacked = List.sort (by_seq (fun c -> c.cov_seq)) !newly_sacked;
    newly_lost = List.sort Serial.compare !newly_lost;
    cum_advanced;
  }

let lost_pending t =
  entries_in_order t
  |> List.filter (fun e -> e.lost)
  |> List.map (fun e -> e.seq)

let mark_expired t ~now ~timeout =
  let fresh = ref [] in
  List.iter
    (fun e ->
      if (not e.sacked) && (not e.lost) && now -. e.last_sent > timeout then begin
        e.lost <- true;
        e.repair <- false;
        fresh := e.seq :: !fresh;
        if Trace.Sink.on t.trace then
          Trace.Sink.emit t.trace
            (Trace.Event.Loss_inferred
               { seq = e.seq; by = Trace.Event.I_timeout })
      end)
    (entries_in_order t);
  List.sort Serial.compare !fresh

let abandon_below t limit =
  let limit = Serial.min limit t.snd_nxt in
  if Serial.( > ) limit t.snd_una then begin
    Serial.iter_range (fun s -> Hashtbl.remove t.tbl (key s)) t.snd_una limit;
    t.snd_una <- limit
  end

let retx_count t s = match find t s with Some e -> e.retx | None -> 0

let status t s =
  match find t s with
  | None -> `Untracked
  | Some e -> if e.sacked then `Sacked else if e.lost then `Lost else `In_flight

let first_sent_at t s =
  match find t s with Some e -> Some e.first_sent | None -> None

let outstanding t = Hashtbl.length t.tbl

let in_flight_bytes t =
  Hashtbl.fold (fun _ e acc -> if e.sacked then acc else acc + e.size) t.tbl 0

let stats_sent t = t.sent
let stats_retx t = t.retx
let stats_acked t = t.acked
