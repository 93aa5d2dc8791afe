let n_packets = 30_000

let pkt_gap = 0.001  (* inter-packet time: 1500 B at 12 Mb/s *)

let rtt = 0.05

(* Synthesise which packets of 0..n-1 survive. *)
let survive_pattern ~seed ~model =
  let rng = Engine.Rng.create ~seed in
  let lm =
    match model with
    | `Bernoulli p -> Common.bernoulli p rng
    | `Gilbert (loss, burst) ->
        Netsim.Loss_model.gilbert ~loss ~burstiness:burst ~rng
  in
  Array.init n_packets (fun _ -> not (Netsim.Loss_model.drops lm))

let receiver_side_p pattern =
  let lh = Tfrc.Loss_history.create () in
  Array.iteri
    (fun i alive ->
      if alive then
        Tfrc.Loss_history.on_packet lh ~seq:(Packet.Serial.of_int i)
          ~arrival:((float_of_int i *. pkt_gap) +. (rtt /. 2.0))
          ~rtt ~is_retx:false)
    pattern;
  Tfrc.Loss_history.loss_event_rate lh

(* Replay the same survivals as per-RTT SACK coverage batches. *)
let sender_side_p pattern =
  let lr = Qtp.Loss_reconstructor.create () in
  let per_batch = int_of_float (rtt /. pkt_gap) in
  let batch = ref (Qtp.Loss_reconstructor.begin_batch lr) in
  Array.iteri
    (fun i alive ->
      if alive then
        Qtp.Loss_reconstructor.push_cover lr ~seq:(Packet.Serial.of_int i)
          ~sent_at:(float_of_int i *. pkt_gap) ~was_retx:false ~rtt
          ~x_recv:(float_of_int Qtp.Vtp_wire.packet_size /. pkt_gap);
      if (i + 1) mod per_batch = 0 then begin
        Qtp.Loss_reconstructor.end_batch lr !batch;
        batch := Qtp.Loss_reconstructor.begin_batch lr
      end)
    pattern;
  Qtp.Loss_reconstructor.end_batch lr !batch;
  Qtp.Loss_reconstructor.loss_event_rate lr

let cases =
  [
    ("bernoulli 0.5%", `Bernoulli 0.005);
    ("bernoulli 1%", `Bernoulli 0.01);
    ("bernoulli 2%", `Bernoulli 0.02);
    ("bernoulli 5%", `Bernoulli 0.05);
    ("gilbert 2% mild", `Gilbert (0.02, 0.3));
    ("gilbert 2% bursty", `Gilbert (0.02, 0.8));
    ("gilbert 5% bursty", `Gilbert (0.05, 0.8));
  ]

let run ?(seed = 42) () =
  let table =
    Stats.Table.create
      ~title:
        "E6: loss-event-rate fidelity — receiver-side vs sender-side \
         (reconstructed) estimation on identical loss patterns"
      ~columns:
        [
          ("loss process", Stats.Table.Left);
          ("raw loss", Stats.Table.Right);
          ("p receiver", Stats.Table.Right);
          ("p sender", Stats.Table.Right);
          ("rel diff", Stats.Table.Right);
          ("eq rate recv (Mb/s)", Stats.Table.Right);
          ("eq rate send (Mb/s)", Stats.Table.Right);
        ]
  in
  List.iter
    (fun (name, model) ->
      let pattern = survive_pattern ~seed ~model in
      let losses =
        Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 pattern
      in
      let raw = float_of_int losses /. float_of_int n_packets in
      let p_r = receiver_side_p pattern in
      let p_s = sender_side_p pattern in
      let rel =
        if p_r = 0.0 then (if p_s = 0.0 then 0.0 else infinity)
        else Float.abs (p_s -. p_r) /. p_r
      in
      let eq p =
        if p <= 0.0 then nan
        else Tfrc.Equation.rate_bps ~s:Qtp.Vtp_wire.packet_size ~r:rtt ~p /. 1e6
      in
      Stats.Table.add_row table
        [
          name;
          Stats.Table.cell_f ~decimals:4 raw;
          Stats.Table.cell_f ~decimals:4 p_r;
          Stats.Table.cell_f ~decimals:4 p_s;
          Stats.Table.cell_f ~decimals:3 rel;
          Stats.Table.cell_f (eq p_r);
          Stats.Table.cell_f (eq p_s);
        ])
    cases;
  table
