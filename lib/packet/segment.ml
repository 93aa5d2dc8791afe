type t = {
  hdr : Header.t;
  payload : int;
}

let make ~hdr ~payload = { hdr; payload }

let size t = Header.wire_size t.hdr ~payload:t.payload

let is_data t = match t.hdr with Header.Data _ -> true | _ -> false

let seq t = Header.seq_of t.hdr
