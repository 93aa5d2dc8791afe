(* Netsim.Qdisc: FIFO order, capacities, RIO colour differentiation. *)

let frame ?(mark = Netsim.Mark.Best_effort) ?(size = 1000) uid =
  Netsim.Frame.make ~uid ~flow_id:0 ~size ~mark (Netsim.Frame.Raw uid)

let test_droptail_fifo () =
  let q = Netsim.Qdisc.droptail ~capacity_pkts:10 in
  for i = 1 to 5 do
    Alcotest.(check bool) "accepted" true
      (Netsim.Qdisc.enqueue q ~now:0.0 (frame i))
  done;
  let order = ref [] in
  let rec drain () =
    match Netsim.Qdisc.dequeue q ~now:0.0 with
    | Some f ->
        order := f.Netsim.Frame.uid :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_droptail_capacity () =
  let q = Netsim.Qdisc.droptail ~capacity_pkts:3 in
  for i = 1 to 3 do
    ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame i))
  done;
  Alcotest.(check bool) "tail dropped" false
    (Netsim.Qdisc.enqueue q ~now:0.0 (frame 4));
  Alcotest.(check int) "length" 3 (Netsim.Qdisc.length_pkts q);
  let st = Netsim.Qdisc.stats q in
  Alcotest.(check int) "offered" 4 st.Netsim.Qdisc.offered;
  Alcotest.(check int) "dropped" 1 st.Netsim.Qdisc.dropped

let test_byte_accounting () =
  let q = Netsim.Qdisc.droptail ~capacity_pkts:10 in
  ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame ~size:700 1));
  ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame ~size:300 2));
  Alcotest.(check int) "bytes" 1000 (Netsim.Qdisc.length_bytes q);
  ignore (Netsim.Qdisc.dequeue q ~now:0.0);
  Alcotest.(check int) "bytes after dequeue" 300 (Netsim.Qdisc.length_bytes q)

let red_params =
  {
    Netsim.Red.min_th = 5.0;
    max_th = 15.0;
    max_p = 0.1;
    w_q = 0.2;
    gentle = true;
    idle_pkt_time = 0.001;
  }

let test_red_queue_caps () =
  let rng = Engine.Rng.create ~seed:61 in
  let q = Netsim.Qdisc.red ~capacity_pkts:20 ~params:red_params ~rng () in
  let accepted = ref 0 in
  for i = 1 to 200 do
    if Netsim.Qdisc.enqueue q ~now:(float_of_int i *. 1e-4) (frame i) then
      incr accepted
  done;
  Alcotest.(check bool) "hard cap respected" true
    (Netsim.Qdisc.length_pkts q <= 20);
  Alcotest.(check bool) "some early drops happened" true (!accepted < 200)

let rio_q () =
  let rng = Engine.Rng.create ~seed:63 in
  Netsim.Qdisc.rio ~capacity_pkts:60
    ~in_params:
      { red_params with min_th = 20.0; max_th = 40.0; max_p = 0.02 }
    ~out_params:{ red_params with min_th = 3.0; max_th = 8.0; max_p = 0.5 }
    ~rng ()

let test_rio_protects_green () =
  let q = rio_q () in
  let green_drops = ref 0 and red_drops = ref 0 in
  let now = ref 0.0 in
  (* Hold the queue around 25 packets: well above the out-profile RED
     region (min 3 / max 8) and with green occupancy (~half) below the
     in-profile thresholds (min 20 / max 40) — the operating point an AF
     class is engineered for. *)
  for i = 1 to 25 do
    ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame ~mark:Netsim.Mark.Green i))
  done;
  for i = 26 to 4000 do
    now := !now +. 1e-4;
    let mark = if i mod 2 = 0 then Netsim.Mark.Green else Netsim.Mark.Red in
    if not (Netsim.Qdisc.enqueue q ~now:!now (frame ~mark i)) then begin
      match mark with
      | Netsim.Mark.Green -> incr green_drops
      | _ -> incr red_drops
    end;
    ignore (Netsim.Qdisc.dequeue q ~now:!now)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "red drops (%d) >> green drops (%d)" !red_drops !green_drops)
    true
    (!red_drops > 10 * Stdlib.max 1 !green_drops);
  let st = Netsim.Qdisc.stats q in
  Alcotest.(check int) "green drop stat" !green_drops st.Netsim.Qdisc.dropped_green;
  Alcotest.(check int) "nongreen drop stat" !red_drops
    st.Netsim.Qdisc.dropped_nongreen

let test_rio_green_accounting () =
  let q = rio_q () in
  ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame ~mark:Netsim.Mark.Green 1));
  ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame ~mark:Netsim.Mark.Red 2));
  ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame ~mark:Netsim.Mark.Green 3));
  (* Dequeue everything; green counters must come back to zero without
     going negative (internally asserted by construction). *)
  let rec drain n =
    match Netsim.Qdisc.dequeue q ~now:0.1 with
    | Some _ -> drain (n + 1)
    | None -> n
  in
  Alcotest.(check int) "drained all" 3 (drain 0);
  Alcotest.(check int) "empty" 0 (Netsim.Qdisc.length_pkts q)

let test_dequeue_empty () =
  let q = Netsim.Qdisc.droptail ~capacity_pkts:2 in
  Alcotest.(check bool) "empty dequeue" true
    (Netsim.Qdisc.dequeue q ~now:0.0 = None)

let prop_droptail_never_exceeds_capacity =
  QCheck.Test.make ~name:"droptail occupancy bounded" ~count:100
    QCheck.(list bool)
    (fun ops ->
      let q = Netsim.Qdisc.droptail ~capacity_pkts:5 in
      let uid = ref 0 in
      List.for_all
        (fun enq ->
          if enq then begin
            incr uid;
            ignore (Netsim.Qdisc.enqueue q ~now:0.0 (frame !uid))
          end
          else ignore (Netsim.Qdisc.dequeue q ~now:0.0);
          Netsim.Qdisc.length_pkts q <= 5)
        ops)

let suite =
  [
    Alcotest.test_case "droptail FIFO" `Quick test_droptail_fifo;
    Alcotest.test_case "droptail capacity" `Quick test_droptail_capacity;
    Alcotest.test_case "byte accounting" `Quick test_byte_accounting;
    Alcotest.test_case "red caps occupancy" `Quick test_red_queue_caps;
    Alcotest.test_case "rio protects green" `Quick test_rio_protects_green;
    Alcotest.test_case "rio green accounting" `Quick test_rio_green_accounting;
    Alcotest.test_case "dequeue empty" `Quick test_dequeue_empty;
    QCheck_alcotest.to_alcotest prop_droptail_never_exceeds_capacity;
  ]
