type entry = { at : float; ev : Event.t }

(* Recording must cost neither allocation nor redundant memory
   traffic: the retained trace is the one part of a traced run that
   must travel to RAM, so bytes per event is the overhead budget.  A
   first cut that retained [Event.t] values paid the GC for promoting
   every variant block, boxed float and int32 serial (~25% events/sec
   on the 100-flow bench scenario); a struct-of-arrays int+float
   encoding fixed the GC but still wrote ~2 cache lines per event plus
   the same again zeroing fresh chunks.

   So entries are packed into bare [float] chunks at a fixed 6-word
   stride: timestamp, one tag word, and up to four payload words.  The
   tag word is an integer (exact as a double, budget 2^53) packing the
   constructor tag in bits 0-5, the flow label in bits 6-25, and the
   constructor's booleans and small counts from bit 26 up — so the hot
   events (segments, sacks) cost three or four stores, not eight.
   Integer payloads (serials are 32-bit, sizes and counts small) are
   exact as doubles; strings are interned into a small side table and
   stored by index.  Chunks come from [Array.create_float], so nothing
   is zeroed, nothing is boxed, stores need no write barrier, and a
   push touches under one cache line.  Chunks are fixed-size and
   allocated lazily as the ring fills — never copied or doubled — so a
   mostly-idle flow stays small.  Events are re-materialised only at
   export.

   The flow label exists because the recorder journals
   every flow through one shared ring — a single sequential write
   stream the hardware prefetcher can track, where a hundred
   interleaved per-flow rings each miss the cache — and reconstructs
   per-flow rings from the labels at export time. *)

let stride = 6

let chunk_slots = 512 (* power of two: chunk indexing is shift/mask *)

let chunk_shift = 9

let chunk_mask = chunk_slots - 1

let max_flow = (1 lsl 20) - 1

type t = {
  capacity : int;
  chunks : float array array;
  mutable head : int;  (* slot index of the oldest entry *)
  mutable len : int;
  mutable total : int;
  mutable strs : string array;
  mutable n_strs : int;
  str_ids : (string, int) Hashtbl.t;
}

let no_chunk : float array = [||]

let create ~capacity =
  if capacity < 1 then invalid_arg "Trace.Ring.create: capacity < 1";
  let n_chunks = (capacity + chunk_slots - 1) / chunk_slots in
  {
    capacity;
    chunks = Array.make n_chunks no_chunk;
    head = 0;
    len = 0;
    total = 0;
    strs = Array.make 8 "";
    n_strs = 0;
    str_ids = Hashtbl.create 8;
  }

let chunk_for t slot =
  let c = slot lsr chunk_shift in
  let ch = t.chunks.(c) in
  if Array.length ch > 0 then ch
  else begin
    (* The last chunk of a non-multiple capacity is allocated at the
       full chunk size; the ring arithmetic never indexes past
       [capacity - 1], so the tail slots are simply unused. *)
    let ch = Array.create_float (chunk_slots * stride) in
    t.chunks.(c) <- ch;
    ch
  end

let intern t s =
  match Hashtbl.find_opt t.str_ids s with
  | Some i -> i
  | None ->
      if t.n_strs = Array.length t.strs then begin
        let bigger = Array.make (2 * t.n_strs) "" in
        Array.blit t.strs 0 bigger 0 t.n_strs;
        t.strs <- bigger
      end;
      let i = t.n_strs in
      t.strs.(i) <- s;
      t.n_strs <- i + 1;
      Hashtbl.add t.str_ids s i;
      i

let serial s = float_of_int (Packet.Serial.to_int s)

let fi = float_of_int

(* Aux bits sit above the tag (6 bits) and flow (20 bits).  Counts
   packed here are bounded by the wire format (sack blocks per packet,
   sizes below 2^16); the masks keep an out-of-range value from
   silently damaging neighbour bits. *)
let aux0 = 26

let b1 cond = if cond then 1 lsl aux0 else 0

let tag ~flow n = n lor (flow lsl 6)

(* Tags are the declaration order of {!Event.t}'s constructors; decode
   must mirror encode exactly. *)
let encode t slot ~flow ~at ev =
  let w = chunk_for t slot in
  let b = (slot land chunk_mask) * stride in
  w.(b) <- at;
  match ev with
  | Event.Seg_send { seq; size; retx } ->
      w.(b + 1) <- fi (tag ~flow 0 lor b1 retx);
      w.(b + 2) <- serial seq;
      w.(b + 3) <- fi size
  | Event.Seg_recv { seq; size; ce; retx } ->
      w.(b + 1) <- fi (tag ~flow 1 lor b1 ce lor (b1 retx lsl 1));
      w.(b + 2) <- serial seq;
      w.(b + 3) <- fi size
  | Event.Sack_sent { cum_ack; blocks; x_recv } ->
      w.(b + 1) <- fi (tag ~flow 2);
      w.(b + 2) <- serial cum_ack;
      w.(b + 3) <- fi blocks;
      w.(b + 4) <- x_recv
  | Event.Sack_rcvd { cum_ack; blocks; acked; sacked; lost } ->
      w.(b + 1) <- fi (tag ~flow 3 lor ((blocks land 0xFFFF) lsl aux0));
      w.(b + 2) <- serial cum_ack;
      w.(b + 3) <- fi acked;
      w.(b + 4) <- fi sacked;
      w.(b + 5) <- fi lost
  | Event.Fb_sent { x_recv; p } ->
      w.(b + 1) <- fi (tag ~flow 4);
      w.(b + 2) <- x_recv;
      w.(b + 3) <- p
  | Event.Fb_rcvd { x_recv; p } ->
      w.(b + 1) <- fi (tag ~flow 5);
      w.(b + 2) <- x_recv;
      w.(b + 3) <- p
  | Event.Loss_event { side; events; p } ->
      w.(b + 1) <- fi (tag ~flow 6 lor b1 (match side with Event.S_receiver -> true | Event.S_sender -> false));
      w.(b + 2) <- fi events;
      w.(b + 3) <- p
  | Event.Loss_inferred { seq; by } ->
      w.(b + 1) <- fi (tag ~flow 7 lor b1 (match by with Event.I_timeout -> true | Event.I_dupthresh -> false));
      w.(b + 2) <- serial seq
  | Event.Rate_change { x_bps; x_calc_bps; x_recv_bps; p; slow_start } ->
      w.(b + 1) <- fi (tag ~flow 8 lor b1 slow_start);
      w.(b + 2) <- x_bps;
      w.(b + 3) <- x_calc_bps;
      w.(b + 4) <- x_recv_bps;
      w.(b + 5) <- p
  | Event.Rtt_sample { sample; srtt } ->
      w.(b + 1) <- fi (tag ~flow 9);
      w.(b + 2) <- sample;
      w.(b + 3) <- srtt
  | Event.Retransmit { seq; count } ->
      w.(b + 1) <- fi (tag ~flow 10);
      w.(b + 2) <- serial seq;
      w.(b + 3) <- fi count
  | Event.Abandoned { seq } ->
      w.(b + 1) <- fi (tag ~flow 11);
      w.(b + 2) <- serial seq
  | Event.Negotiated { plane; mode; g_bps } ->
      w.(b + 1) <- fi (tag ~flow 12);
      w.(b + 2) <- fi (intern t plane);
      w.(b + 3) <- fi (intern t mode);
      w.(b + 4) <- g_bps
  | Event.Nego_failed { reason } ->
      w.(b + 1) <- fi (tag ~flow 13);
      w.(b + 2) <- fi (intern t reason)
  | Event.Conn_state { state } ->
      w.(b + 1) <- fi (tag ~flow 14);
      w.(b + 2) <- fi (intern t state)
  | Event.Drop { link; reason; size } ->
      (* Two aux bits; values 0/1 predate [D_cut], keeping old traces
         decodable. *)
      w.(b + 1) <- fi (tag ~flow 15 lor ((match reason with Event.D_loss -> 0 | Event.D_queue -> 1 | Event.D_cut -> 2) lsl aux0));
      w.(b + 2) <- fi (intern t link);
      w.(b + 3) <- fi size
  | Event.Tcp_send { seq; retx } ->
      w.(b + 1) <- fi (tag ~flow 16 lor b1 retx);
      w.(b + 2) <- serial seq
  | Event.Tcp_ack_rcvd { cum_ack; cwnd; ssthresh } ->
      w.(b + 1) <- fi (tag ~flow 17);
      w.(b + 2) <- serial cum_ack;
      w.(b + 3) <- cwnd;
      w.(b + 4) <- ssthresh
  | Event.Handover { from_path; to_path; cut } ->
      w.(b + 1) <- fi (tag ~flow 18 lor b1 cut);
      w.(b + 2) <- fi (intern t from_path);
      w.(b + 3) <- fi (intern t to_path)

let decode t slot =
  let w = chunk_for t slot in
  let b = (slot land chunk_mask) * stride in
  let f k = w.(b + k) in
  let i k = int_of_float (f k) in
  let str k = t.strs.(i k) in
  let seq k = Packet.Serial.of_int (i k) in
  let tagw = i 1 in
  let aux = tagw lsr aux0 in
  let abit n = (aux lsr n) land 1 = 1 in
  let ev =
    match tagw land 63 with
    | 0 -> Event.Seg_send { seq = seq 2; size = i 3; retx = abit 0 }
    | 1 -> Event.Seg_recv { seq = seq 2; size = i 3; ce = abit 0; retx = abit 1 }
    | 2 -> Event.Sack_sent { cum_ack = seq 2; blocks = i 3; x_recv = f 4 }
    | 3 ->
        Event.Sack_rcvd
          {
            cum_ack = seq 2;
            blocks = aux land 0xFFFF;
            acked = i 3;
            sacked = i 4;
            lost = i 5;
          }
    | 4 -> Event.Fb_sent { x_recv = f 2; p = f 3 }
    | 5 -> Event.Fb_rcvd { x_recv = f 2; p = f 3 }
    | 6 ->
        Event.Loss_event
          {
            side = (if abit 0 then Event.S_receiver else Event.S_sender);
            events = i 2;
            p = f 3;
          }
    | 7 ->
        Event.Loss_inferred
          {
            seq = seq 2;
            by = (if abit 0 then Event.I_timeout else Event.I_dupthresh);
          }
    | 8 ->
        Event.Rate_change
          {
            x_bps = f 2;
            x_calc_bps = f 3;
            x_recv_bps = f 4;
            p = f 5;
            slow_start = abit 0;
          }
    | 9 -> Event.Rtt_sample { sample = f 2; srtt = f 3 }
    | 10 -> Event.Retransmit { seq = seq 2; count = i 3 }
    | 11 -> Event.Abandoned { seq = seq 2 }
    | 12 -> Event.Negotiated { plane = str 2; mode = str 3; g_bps = f 4 }
    | 13 -> Event.Nego_failed { reason = str 2 }
    | 14 -> Event.Conn_state { state = str 2 }
    | 15 ->
        Event.Drop
          {
            link = str 2;
            reason =
              (match aux land 3 with
              | 0 -> Event.D_loss
              | 1 -> Event.D_queue
              | _ -> Event.D_cut);
            size = i 3;
          }
    | 16 -> Event.Tcp_send { seq = seq 2; retx = abit 0 }
    | 17 -> Event.Tcp_ack_rcvd { cum_ack = seq 2; cwnd = f 3; ssthresh = f 4 }
    | 18 ->
        Event.Handover { from_path = str 2; to_path = str 3; cut = abit 0 }
    | tag -> Printf.ksprintf failwith "Trace.Ring: corrupt tag %d" tag
  in
  ((tagw lsr 6) land max_flow, { at = f 0; ev })

let push ~flow t ~at ev =
  if flow < 0 || flow > max_flow then
    invalid_arg "Trace.Ring.push: flow outside [0, 2^20)";
  let s = t.head + t.len in
  encode t (if s >= t.capacity then s - t.capacity else s) ~flow ~at ev;
  if t.len = t.capacity then
    t.head <- (if t.head + 1 >= t.capacity then 0 else t.head + 1)
  else t.len <- t.len + 1;
  t.total <- t.total + 1

let note_dropped t n =
  if n < 0 then invalid_arg "Trace.Ring.note_dropped: n < 0";
  t.total <- t.total + n

let length t = t.len

let total t = t.total

let dropped t = t.total - t.len

let iter_tagged f t =
  for i = 0 to t.len - 1 do
    let s = t.head + i in
    let flow, e = decode t (if s >= t.capacity then s - t.capacity else s) in
    f flow e
  done

let iter f t = iter_tagged (fun _ e -> f e) t

let to_list t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc
