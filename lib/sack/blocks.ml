module Serial = Packet.Serial

type t = Packet.Header.sack_block

let make a b =
  if Serial.( >= ) a b then invalid_arg "Blocks.make: empty range";
  { Packet.Header.block_start = a; block_end = b }

