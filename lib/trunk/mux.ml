type config = {
  users : int;
  discipline : Sched.kind;
  quantum : int;
  frame_cap : int;
  per_user_cap : int;
  audit : bool;
}

let config ?(discipline = Sched.Drr) ?(quantum = Sched.default_quantum)
    ?(frame_cap = Frame.default_frame_cap) ?(per_user_cap = 65536)
    ?(audit = true) ~users () =
  if users < 1 || users > Frame.max_user + 1 then
    invalid_arg "Trunk.Mux: users out of range";
  if quantum < 1 then invalid_arg "Trunk.Mux: quantum < 1";
  if frame_cap < 1 || frame_cap > Frame.max_len then
    invalid_arg "Trunk.Mux: frame_cap out of range";
  if per_user_cap < 1 then invalid_arg "Trunk.Mux: per_user_cap < 1";
  { users; discipline; quantum; frame_cap; per_user_cap; audit }

(* Conservation digests: a chunk-invariant running hash of one user's
   byte stream at a station.  Bytes gather little-endian into a pending
   word; every full 8-byte word folds djb2-style into the accumulator.
   The fold is a pure function of the byte stream — slice boundaries
   never matter, so the three stations digest identical streams to
   identical values even though admission hashes 4 KiB offers, shipping
   hashes sub-frame takes and delivery hashes parsed frames.  Word-at-
   a-time keeps the bookkeeping to a fraction of the segment path's
   copy cost (a per-byte fold costed more than the blits it audited). *)
module Dig = struct
  type t = {
    acc : int array;  (* folded whole words *)
    pend : int array;  (* gathered tail bytes, little-endian *)
    pk : int array;  (* how many tail bytes are gathered, 0..7 *)
  }

  let seed = 5381

  let create n =
    { acc = Array.make n seed; pend = Array.make n 0; pk = Array.make n 0 }

  let mix acc w = (((acc lsl 5) + acc) lxor w) land max_int

  let update d u buf ~pos ~len =
    let acc = ref d.acc.(u) in
    let pend = ref d.pend.(u) in
    let pk = ref d.pk.(u) in
    let i = ref pos in
    let stop = pos + len in
    while !pk <> 0 && !i < stop do
      pend := !pend lor (Char.code (Bytes.unsafe_get buf !i) lsl (8 * !pk));
      incr i;
      pk := (!pk + 1) land 7;
      if !pk = 0 then begin
        acc := mix !acc !pend;
        pend := 0
      end
    done;
    while stop - !i >= 8 do
      let b k = Char.code (Bytes.unsafe_get buf (!i + k)) in
      let w =
        b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) lor (b 4 lsl 32)
        lor (b 5 lsl 40) lor (b 6 lsl 48) lor (b 7 lsl 56)
      in
      acc := mix !acc w;
      i := !i + 8
    done;
    while !i < stop do
      pend := !pend lor (Char.code (Bytes.unsafe_get buf !i) lsl (8 * !pk));
      incr i;
      incr pk
    done;
    d.acc.(u) <- !acc;
    d.pend.(u) <- !pend;
    d.pk.(u) <- !pk

  (* Finalised view: equal streams give equal values; the tail state is
     folded in so "abc" and "abc" + pending junk can't collide by
     accident of timing. *)
  let value d u = mix (mix d.acc.(u) d.pend.(u)) d.pk.(u)
end

(* Per-user admission queue: a circular byte FIFO over a power-of-two
   buffer.  [append] and [pop_into] copy only the bytes they move, in at
   most two blits each (one per side of the wrap point); growth
   linearises the backlog into a buffer doubled until it fits.  The
   buffer is allocated on the first append: a user that never offers
   a byte costs no buffer. *)
module Q = struct
  type t = { mutable buf : Bytes.t; mutable head : int; mutable len : int }

  let create () = { buf = Bytes.empty; head = 0; len = 0 }

  let length q = q.len

  let rec pow2_at_least cap need =
    if cap >= need then cap else pow2_at_least (2 * cap) need

  let grow q need =
    let cap = Bytes.length q.buf in
    let nb = Bytes.create (pow2_at_least (Stdlib.max 256 cap) need) in
    let first = Stdlib.min q.len (cap - q.head) in
    Bytes.blit q.buf q.head nb 0 first;
    Bytes.blit q.buf 0 nb first (q.len - first);
    q.buf <- nb;
    q.head <- 0

  let[@vtp.hot] append q src pos len =
    if q.len + len > Bytes.length q.buf then grow q (q.len + len);
    let cap = Bytes.length q.buf in
    let tail = (q.head + q.len) land (cap - 1) in
    let first = Stdlib.min len (cap - tail) in
    Bytes.blit src pos q.buf tail first;
    if first < len then Bytes.blit src (pos + first) q.buf 0 (len - first);
    q.len <- q.len + len

  (* An emptied queue restarts at offset 0, so a user that keeps up
     with its share never splits a copy at the wrap point. *)
  let[@vtp.hot] pop_into q dst ~pos ~len =
    let cap = Bytes.length q.buf in
    let first = Stdlib.min len (cap - q.head) in
    Bytes.blit q.buf q.head dst pos first;
    if first < len then Bytes.blit q.buf 0 dst (pos + first) (len - first);
    q.len <- q.len - len;
    q.head <- (if q.len = 0 then 0 else (q.head + len) land (cap - 1))
end

type t = {
  cfg : config;
  sched : Sched.t;
  queues : Q.t array;
  src : Qtp.Source.t;
  mutable seg_payload : int;  (* 0 until attached *)
  admitted : int array;
  shipped : int array;
  delivered : int array;
  adm_dig : Dig.t;
  shp_dig : Dig.t;
  dlv_dig : Dig.t;
  (* The segment window: a power-of-two ring over the packing ordinals
     [base, nsegs), segment k in slot [k land (capacity - 1)].  A slot
     keeps its buffer after release, so the window is also the buffer
     pool: pack writes the next segment into whatever the slot held. *)
  mutable segs : Bytes.t array;
  mutable seg_lens : int array;  (* packed bytes; 0 once released *)
  mutable base : int;  (* oldest ordinal not yet delivered or skipped *)
  mutable nsegs : int;
  mutable rejected : int;
  mutable frames_packed : int;
  mutable junk : int;
  mutable on_data : (user:int -> buf:Bytes.t -> pos:int -> len:int -> unit) option;
}

(* Called only when full, so every old slot is live and moves to its
   ordinal's slot in the doubled ring. *)
let grow_window t =
  let mask = Array.length t.segs - 1 in
  let segs = Array.make (2 * (mask + 1)) Bytes.empty in
  let lens = Array.make (2 * (mask + 1)) 0 in
  for k = t.base to t.nsegs - 1 do
    segs.(k land ((2 * mask) + 1)) <- t.segs.(k land mask);
    lens.(k land ((2 * mask) + 1)) <- t.seg_lens.(k land mask)
  done;
  t.segs <- segs;
  t.seg_lens <- lens

let pack t =
  if t.seg_payload = 0 || Sched.total t.sched = 0 then false
  else begin
    if t.nsegs - t.base = Array.length t.segs then grow_window t;
    let slot = t.nsegs land (Array.length t.segs - 1) in
    let budget = t.seg_payload in
    if Bytes.length t.segs.(slot) < budget then
      t.segs.(slot) <- Bytes.create budget;
    let buf = t.segs.(slot) in
    let wpos = ref 0 in
    let frames = ref 0 in
    let used =
      Sched.fill t.sched ~budget ~overhead:Frame.header_bytes
        ~cap:t.cfg.frame_cap ~f:(fun ~user ~take ->
          Frame.put_header buf ~pos:!wpos ~user ~len:take;
          let ppos = !wpos + Frame.header_bytes in
          Q.pop_into t.queues.(user) buf ~pos:ppos ~len:take;
          t.shipped.(user) <- t.shipped.(user) + take;
          if t.cfg.audit then Dig.update t.shp_dig user buf ~pos:ppos ~len:take;
          wpos := ppos + take;
          incr frames)
    in
    if used = 0 then false
    else begin
      t.seg_lens.(slot) <- used;
      t.nsegs <- t.nsegs + 1;
      t.frames_packed <- t.frames_packed + !frames;
      true
    end
  end

(* Release ordinals [base, k]: k was just delivered, and partial
   reliability skipped every earlier one still held (delivery is in
   order, so none of them will ever be delivered). *)
let[@vtp.hot] release_through t k =
  let mask = Array.length t.seg_lens - 1 in
  for i = t.base to k do
    t.seg_lens.(i land mask) <- 0
  done;
  t.base <- k + 1

let deliver t ~seq =
  let d = Packet.Serial.diff seq (Packet.Serial.of_int t.base) in
  if d >= 0 && d < t.nsegs - t.base then begin
    let k = t.base + d in
    let slot = k land (Array.length t.segs - 1) in
    let seg = t.segs.(slot) in
    Frame.iter seg ~pos:0 ~len:t.seg_lens.(slot)
      ~frame:(fun ~user ~off ~len ->
        t.delivered.(user) <- t.delivered.(user) + len;
        if t.cfg.audit then Dig.update t.dlv_dig user seg ~pos:off ~len;
        match t.on_data with
        | Some f -> f ~user ~buf:seg ~pos:off ~len
        | None -> ())
      ~junk:(fun ~bytes -> t.junk <- t.junk + bytes);
    (* Exactly-once: a released ordinal falls below [base] and its slot
       reads as empty, so a repeated delivery is ignored rather than
       counted twice.  Release after the demux: the callbacks may see
       the buffer until they return, and a pack they trigger must not
       reuse it mid-parse. *)
    release_through t k
  end

let create ?weights cfg =
  let t_ref = ref None in
  let src =
    Qtp.Source.pull
      ~take:(fun () -> match !t_ref with Some t -> pack t | None -> false)
      ()
  in
  let t =
    {
      cfg;
      sched =
        Sched.create ~quantum:cfg.quantum ?weights cfg.discipline
          ~users:cfg.users ();
      queues = Array.init cfg.users (fun _ -> Q.create ());
      src;
      seg_payload = 0;
      admitted = Array.make cfg.users 0;
      shipped = Array.make cfg.users 0;
      delivered = Array.make cfg.users 0;
      adm_dig = Dig.create cfg.users;
      shp_dig = Dig.create cfg.users;
      dlv_dig = Dig.create cfg.users;
      segs = Array.make 64 Bytes.empty;
      seg_lens = Array.make 64 0;
      base = 0;
      nsegs = 0;
      rejected = 0;
      frames_packed = 0;
      junk = 0;
      on_data = None;
    }
  in
  t_ref := Some t;
  t

let source t = t.src

let attach t ~conn ~seg_payload =
  if seg_payload <= Frame.header_bytes then
    invalid_arg "Trunk.Mux.attach: seg_payload must exceed frame header";
  t.seg_payload <- Stdlib.min seg_payload (Bytes.length (Frame.scratch ()));
  Qtp.Connection.set_on_deliver conn (deliver t)

let admit t ~user ~src ~pos ~len =
  if user < 0 || user >= t.cfg.users then
    invalid_arg "Trunk.Mux.admit: user out of range";
  if len < 0 || pos < 0 || pos + len > Bytes.length src then
    invalid_arg "Trunk.Mux.admit: bad slice";
  let space = t.cfg.per_user_cap - Q.length t.queues.(user) in
  let acc = Stdlib.min len (Stdlib.max 0 space) in
  if acc > 0 then begin
    Q.append t.queues.(user) src pos acc;
    t.admitted.(user) <- t.admitted.(user) + acc;
    if t.cfg.audit then Dig.update t.adm_dig user src ~pos ~len:acc;
    Sched.enqueue t.sched ~user acc;
    Qtp.Source.wake t.src
  end;
  t.rejected <- t.rejected + (len - acc);
  acc

let set_on_data t f = t.on_data <- Some f

let feed t ~sim ~workloads ?(chunk = 4096) ?(period = 0.05) ?(seed = 0)
    ~stop_at () =
  if Array.length workloads > t.cfg.users then
    invalid_arg "Trunk.Mux.feed: more workloads than users";
  if chunk < 1 || period <= 0.0 then invalid_arg "Trunk.Mux.feed";
  let n = Array.length workloads in
  let sent = Array.make t.cfg.users 0 in
  (* Byte o of user u's stream is (s + 31*o) mod 256 with
     s = seed + u*131.  As 223 = 31^-1 mod 256 that is
     31*(o + 223*s) mod 256: every stream is a rotation of the one
     256-periodic sequence 31*i, so any offer is a slice of this table
     starting at phase (o + 223*s) mod 256.  One period is rendered,
     then the filled prefix is doubled in place until the table is full. *)
  let table = Bytes.create (256 + chunk) in
  for i = 0 to 255 do
    Bytes.unsafe_set table i (Char.unsafe_chr ((31 * i) land 0xff))
  done;
  let filled = ref 256 in
  while !filled < Bytes.length table do
    let len = Stdlib.min !filled (Bytes.length table - !filled) in
    Bytes.blit table 0 table !filled len;
    filled := !filled + len
  done;
  let rec tick () =
    if Engine.Sim.now sim < stop_at then begin
      let pending = ref false in
      for u = 0 to n - 1 do
        let remaining = workloads.(u) - sent.(u) in
        if remaining > 0 then begin
          (* Offer only what admission has room for: the feed's own
             backpressure is not counted as refused bytes. *)
          let space = t.cfg.per_user_cap - Q.length t.queues.(u) in
          let want = Stdlib.min (Stdlib.min chunk remaining) space in
          if want > 0 then begin
            let phase = (sent.(u) + (223 * (seed + (u * 131)))) land 0xff in
            let acc = admit t ~user:u ~src:table ~pos:phase ~len:want in
            sent.(u) <- sent.(u) + acc
          end;
          if sent.(u) < workloads.(u) then pending := true
        end
      done;
      if !pending then Engine.Sim.post_after sim period tick
    end
  in
  Engine.Sim.post_after sim 0.0 tick;
  sent

let users t = t.cfg.users

let backlog_user t ~user = Q.length t.queues.(user)

let admitted_bytes t ~user = t.admitted.(user)

let shipped_bytes t ~user = t.shipped.(user)

let delivered_bytes t ~user = t.delivered.(user)

let delivered_per_user t = Array.map float_of_int t.delivered

let segments_packed t = t.nsegs

let frames_packed t = t.frames_packed

let window_slots t = Array.length t.segs

let rejected t = t.rejected

let junk_bytes t = t.junk

let check_conservation t =
  let r = ref (Ok ()) in
  for u = t.cfg.users - 1 downto 0 do
    let adm = Dig.value t.adm_dig u
    and shp = Dig.value t.shp_dig u
    and dlv = Dig.value t.dlv_dig u in
    if t.delivered.(u) <> t.shipped.(u) || dlv <> shp then
      r :=
        Error
          (Printf.sprintf
             "user %d: shipped %dB digest %x but delivered %dB digest %x" u
             t.shipped.(u) shp t.delivered.(u) dlv)
    else if
      Q.length t.queues.(u) = 0
      && (t.admitted.(u) <> t.shipped.(u) || adm <> shp)
    then
      r :=
        Error
          (Printf.sprintf
             "user %d: drained queue but admitted %dB digest %x vs shipped \
              %dB digest %x"
             u t.admitted.(u) adm t.shipped.(u) shp)
  done;
  if t.junk > 0 && Result.is_ok !r then
    r := Error (Printf.sprintf "parser skipped %d junk bytes" t.junk);
  !r
