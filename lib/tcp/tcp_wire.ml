type seg = {
  seq : Packet.Serial.t;
  tstamp : float;
  is_retx : bool;
}

type ack = {
  cum_ack : Packet.Serial.t;
  tstamp_echo : float;
  echo_is_retx : bool;
}

type Netsim.Frame.body += Seg of seg | Ack of ack

let seg_size ~payload = 40 + payload

let ack_size = 40
