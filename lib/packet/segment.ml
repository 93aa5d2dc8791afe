type t = {
  id : int;
  flow_id : int;
  hdr : Header.t;
  payload : int;
}

let make ~id ~flow_id ~hdr ~payload = { id; flow_id; hdr; payload }

let size t = Header.wire_size t.hdr ~payload:t.payload

let is_data t = match t.hdr with Header.Data _ -> true | _ -> false

let seq t = Header.seq_of t.hdr

let pp fmt t =
  Format.fprintf fmt "#%d flow=%d %a payload=%dB" t.id t.flow_id Header.pp
    t.hdr t.payload
