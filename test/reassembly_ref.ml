module Serial = Packet.Serial

(* [lo; lo+1; …; hi-1], empty if [lo >= hi]: the list [Serial.range]
   built before it left [lib/]. *)
let serial_range lo hi =
  let n = Serial.diff hi lo in
  if n <= 0 then [] else List.init n (fun i -> Serial.add lo i)

type t = {
  cost : Stats.Cost.t option;
  deliver : seq:Serial.t -> size:int -> unit;
  on_gap : skipped:int -> unit;
  buffer : (int, int) Hashtbl.t;  (* seq -> size *)
  mutable next : Serial.t;
  mutable delivered : int;
  mutable skipped : int;
}

let create ?cost ~deliver ~on_gap () =
  {
    cost;
    deliver;
    on_gap;
    buffer = Hashtbl.create 8;
    next = Serial.zero;
    delivered = 0;
    skipped = 0;
  }

let charge t name =
  match t.cost with Some c -> Stats.Cost.charge c name | None -> ()

let rec drain t =
  match Hashtbl.find_opt t.buffer (Serial.to_int t.next) with
  | Some size ->
      Hashtbl.remove t.buffer (Serial.to_int t.next);
      t.deliver ~seq:t.next ~size;
      t.delivered <- t.delivered + 1;
      t.next <- Serial.succ t.next;
      drain t
  | None -> ()

let on_data t ~seq ~size =
  charge t "recv.reassembly";
  if Serial.( >= ) seq t.next && not (Hashtbl.mem t.buffer (Serial.to_int seq))
  then begin
    if Serial.equal seq t.next then begin
      t.deliver ~seq ~size;
      t.delivered <- t.delivered + 1;
      t.next <- Serial.succ t.next;
      drain t
    end
    else Hashtbl.replace t.buffer (Serial.to_int seq) size
  end;
  match t.cost with
  | Some c -> Stats.Cost.watermark c "recv.reassembly.buffered" (Hashtbl.length t.buffer)
  | None -> ()

let apply_fwd_point t fwd =
  if Serial.( > ) fwd t.next then begin
    let gap = ref 0 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt t.buffer (Serial.to_int s) with
        | Some size ->
            Hashtbl.remove t.buffer (Serial.to_int s);
            t.deliver ~seq:s ~size;
            t.delivered <- t.delivered + 1
        | None ->
            incr gap;
            t.skipped <- t.skipped + 1)
      (serial_range t.next fwd);
    t.next <- fwd;
    if !gap > 0 then t.on_gap ~skipped:!gap;
    drain t
  end

let next_expected t = t.next

let delivered t = t.delivered

let skipped t = t.skipped

let buffered t = Hashtbl.length t.buffer
