(* Differential qcheck suites for the flat-record hot state.

   The mutable per-flow floats of the TFRC sender, the TFRC receiver
   and the QTP_light loss reconstructor live in all-float records, flat
   in the heap; the mixed-record originals, whose float fields box on
   every write, are frozen as [Sender_ref] / [Receiver_ref] /
   [Loss_reconstructor_ref] beside these tests.
   Each property drives the live module and its oracle through one
   random operation script — feedback storms, idle gaps, handover
   reseeds, LFN-sized sequence jumps — and requires every observable to
   stay bit-identical (Float.equal, not approximate: the state layout
   must not change a single IEEE operation). *)

module S = Tfrc.Sender
module SR = Sender_ref
module R = Tfrc.Receiver
module RR = Receiver_ref
module LR = Qtp.Loss_reconstructor
module LRR = Loss_reconstructor_ref

let feq = Float.equal

let link_of (bw, rtt) = { Tfrc.Handover.bandwidth_bps = bw; rtt }

let policy_of = function
  | 0 -> `Keep
  | 1 -> `Reset
  | _ -> `Informed

(* ------------------------------------------------------------------ *)
(* Sender: live vs record oracle *)

type snd_op =
  | S_feedback of { dt : float; echo_age : float; t_delay : float;
                    x_recv : float; p : float }
  | S_idle of float
  | S_notify
  | S_handover of { policy : int; bw : float; link_rtt : float }

let gen_snd_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun ((dt_i, age_i, td_i), (xr_i, p_i)) ->
              S_feedback
                {
                  dt = float_of_int dt_i /. 1000.0;
                  echo_age = float_of_int age_i /. 1000.0;
                  t_delay = float_of_int td_i /. 10000.0;
                  x_recv = float_of_int xr_i;
                  (* p = 0 keeps slow start alive; small rates exercise
                     the t_mbi floor and the gTFRC clamp *)
                  p = (if p_i = 0 then 0.0 else float_of_int p_i /. 1000.0);
                })
            (pair
               (triple (int_range 1 400) (int_range 10 500) (int_range 0 200))
               (pair (int_range 500 200_000) (int_range 0 100))) );
        (2, map (fun dt_i -> S_idle (float_of_int dt_i /. 100.0))
             (int_range 1 120));
        (1, return S_notify);
        ( 1,
          map
            (fun (pol, bw_i, rtt_i) ->
              S_handover
                {
                  policy = pol;
                  bw = float_of_int bw_i *. 1e4;
                  link_rtt = float_of_int rtt_i /. 1000.0;
                })
            (triple (int_bound 2) (int_range 10 1000) (int_range 5 400)) );
      ])

let gen_snd_case =
  QCheck.Gen.(
    pair
      (triple (int_range 0 3) (int_range 20 800) bool)
      (list_size (int_range 1 40) gen_snd_op))

let snd_params (psize_i, irtt_i, damping) =
  {
    S.default_params with
    S.packet_size = 500 + (250 * psize_i);
    initial_rtt = float_of_int irtt_i /. 1000.0;
    min_rate_bps = (if psize_i = 1 then 64_000.0 else 0.0);
    oscillation_damping = damping;
  }

let snd_ref_params (psize_i, irtt_i, damping) =
  {
    SR.default_params with
    SR.packet_size = 500 + (250 * psize_i);
    initial_rtt = float_of_int irtt_i /. 1000.0;
    min_rate_bps = (if psize_i = 1 then 64_000.0 else 0.0);
    oscillation_damping = damping;
  }

let sender_observables_agree a b =
  feq (S.rate_bps a) (SR.rate_bps b)
  && feq (S.instantaneous_rate_bps a) (SR.instantaneous_rate_bps b)
  && feq (S.rtt a) (SR.rtt b)
  && S.has_rtt_sample a = SR.has_rtt_sample b
  && S.in_slow_start a = SR.in_slow_start b
  && S.packets_sent a = SR.packets_sent b
  && S.feedbacks_processed a = SR.feedbacks_processed b
  && S.nofeedback_expiries a = SR.nofeedback_expiries b

(* Each side's application holds [segment_budget] segments per case and
   then runs dry: [on_transmit] returns false and the sender idles until
   the next notify, the same on both sides.  The generator draws
   [echo_age] and [t_delay] independently, so with damping on an RTT
   sample can land a rounding error above zero; §4.5's
   X_inst = X * R_sqmean / sqrt(R_sample) then reaches ~10^13 b/s.
   Without the budget such a case schedules ~10^9 send ticks per
   simulated second, and about one qcheck seed in twenty did not finish
   this property in 15 minutes.  Over 45 seeds (5,400 cases) the
   busiest of the other cases sent 2,695 segments. *)
let segment_budget = 200_000

let budgeted () =
  let left = ref segment_budget in
  fun () ->
    !left > 0
    && begin
         decr left;
         true
       end

let prop_sender_parity =
  QCheck.Test.make ~name:"sender == record oracle (bit-exact)"
    ~count:120
    (QCheck.make gen_snd_case)
    (fun (pcfg, ops) ->
      let sim_a = Engine.Sim.create ~seed:7 () in
      let sim_b = Engine.Sim.create ~seed:7 () in
      let a =
        S.create ~sim:sim_a (snd_params pcfg) ~on_transmit:(budgeted ()) ()
      in
      let b =
        SR.create ~sim:sim_b (snd_ref_params pcfg)
          ~on_transmit:(budgeted ())
          ()
      in
      S.start a;
      SR.start b;
      let now = ref 0.0 in
      let advance dt =
        now := !now +. dt;
        Engine.Sim.run ~until:!now sim_a;
        Engine.Sim.run ~until:!now sim_b
      in
      List.for_all
        (fun op ->
          (match op with
          | S_feedback { dt; echo_age; t_delay; x_recv; p } ->
              advance dt;
              let echo = Float.max 0.0 (!now -. echo_age) in
              S.on_feedback a ~tstamp_echo:echo ~t_delay ~x_recv ~p;
              SR.on_feedback b ~tstamp_echo:echo ~t_delay ~x_recv ~p
          | S_idle dt -> advance dt
          | S_notify ->
              S.notify_data a;
              SR.notify_data b
          | S_handover { policy; bw; link_rtt } ->
              let link = link_of (bw, link_rtt) in
              S.apply_handover a ~policy:(policy_of policy) ~link;
              SR.apply_handover b ~policy:(policy_of policy) ~link);
          sender_observables_agree a b)
        ops)

(* ------------------------------------------------------------------ *)
(* Receiver: live vs record oracle *)

type rcv_op =
  | R_data of { dt : float; gap : int; size : int; ce : bool }
  | R_jump of int  (* LFN-style window displacement *)
  | R_gap of float
  | R_handover of { policy : int; bw : float; link_rtt : float }

let gen_rcv_op =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map
            (fun ((dt_i, gap_i), (size_i, ce)) ->
              R_data
                {
                  dt = float_of_int dt_i /. 5000.0;
                  (* mostly in-order, sometimes a hole (a loss event) *)
                  gap = (if gap_i < 85 then 1 else 1 + (gap_i mod 7));
                  size = 200 + (size_i * 100);
                  ce;
                })
            (pair
               (pair (int_range 1 300) (int_bound 99))
               (pair (int_bound 13) bool)) );
        (1, map (fun j -> R_jump (1000 + j)) (int_bound 30_000));
        (1, map (fun dt_i -> R_gap (float_of_int dt_i /. 50.0))
             (int_range 1 100));
        ( 1,
          map
            (fun (pol, bw_i, rtt_i) ->
              R_handover
                {
                  policy = pol;
                  bw = float_of_int bw_i *. 1e4;
                  link_rtt = float_of_int rtt_i /. 1000.0;
                })
            (triple (int_bound 2) (int_range 10 1000) (int_range 5 400)) );
      ])

let receiver_observables_agree a b =
  feq (R.x_recv a) (RR.x_recv b)
  && feq (R.loss_event_rate a) (RR.loss_event_rate b)
  && R.loss_events a = RR.loss_events b
  && R.packets_received a = RR.packets_received b
  && R.feedbacks_sent a = RR.feedbacks_sent b

let feedbacks_agree (x : Packet.Header.feedback) (y : Packet.Header.feedback) =
  feq x.Packet.Header.tstamp_echo y.Packet.Header.tstamp_echo
  && feq x.Packet.Header.t_delay y.Packet.Header.t_delay
  && feq x.Packet.Header.x_recv y.Packet.Header.x_recv
  && feq x.Packet.Header.p y.Packet.Header.p
  && Packet.Serial.equal x.Packet.Header.recv_seq y.Packet.Header.recv_seq

let prop_receiver_parity =
  QCheck.Test.make ~name:"receiver == record oracle (bit-exact)"
    ~count:120
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) gen_rcv_op))
    (fun ops ->
      let sim_a = Engine.Sim.create ~seed:11 () in
      let sim_b = Engine.Sim.create ~seed:11 () in
      let fa = ref [] and fb = ref [] in
      let a = R.create ~sim:sim_a ~send_feedback:(fun f -> fa := f :: !fa) () in
      let b =
        RR.create ~sim:sim_b ~send_feedback:(fun f -> fb := f :: !fb) ()
      in
      let now = ref 0.0 and seq = ref 0 in
      let advance dt =
        now := !now +. dt;
        Engine.Sim.run ~until:!now sim_a;
        Engine.Sim.run ~until:!now sim_b
      in
      let deliver ~gap ~size ~ce =
        seq := !seq + gap;
        let hdr =
          {
            Packet.Header.seq = Packet.Serial.of_int !seq;
            tstamp = Float.max 0.0 (!now -. 0.02);
            rtt_estimate = 0.08;
            is_retransmit = false;
            fwd_point = Packet.Serial.of_int !seq;
          }
        in
        R.on_data a ~ce hdr ~size;
        RR.on_data b ~ce hdr ~size
      in
      List.for_all
        (fun op ->
          (match op with
          | R_data { dt; gap; size; ce } ->
              advance dt;
              deliver ~gap ~size ~ce
          | R_jump j ->
              advance 0.001;
              deliver ~gap:j ~size:1000 ~ce:false
          | R_gap dt -> advance dt
          | R_handover { policy; bw; link_rtt } ->
              let link = link_of (bw, link_rtt) in
              R.on_handover a ~policy:(policy_of policy) ~link;
              RR.on_handover b ~policy:(policy_of policy) ~link);
          receiver_observables_agree a b
          && List.length !fa = List.length !fb
          && List.for_all2 feedbacks_agree !fa !fb)
        ops)

(* ------------------------------------------------------------------ *)
(* Loss reconstructor: live vs record oracle *)

type lr_op =
  | L_batch of { dt : float; covers : (int * bool) list; rtt : float;
                 x_recv : float }
  | L_ce of { marks : int; rtt : float; x_recv : float }
  | L_handover of { policy : int; bw : float; link_rtt : float }

let gen_lr_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun ((dt_i, rtt_i, xr_i), covers) ->
              L_batch
                {
                  dt = float_of_int dt_i /. 1000.0;
                  covers;
                  rtt = float_of_int rtt_i /. 1000.0;
                  x_recv = float_of_int xr_i;
                })
            (pair
               (triple (int_range 1 300) (int_range 5 400)
                  (int_range 500 100_000))
               (list_size (int_range 1 30)
                  (pair (int_range 1 50) bool))) );
        ( 1,
          map
            (fun (m, rtt_i, xr_i) ->
              L_ce
                {
                  marks = m;
                  rtt = float_of_int rtt_i /. 1000.0;
                  x_recv = float_of_int xr_i;
                })
            (triple (int_range 1 4) (int_range 5 400) (int_range 500 100_000)) );
        ( 1,
          map
            (fun (pol, bw_i, rtt_i) ->
              L_handover
                {
                  policy = pol;
                  bw = float_of_int bw_i *. 1e4;
                  link_rtt = float_of_int rtt_i /. 1000.0;
                })
            (triple (int_bound 2) (int_range 10 1000) (int_range 5 400)) );
      ])

let prop_reconstructor_parity =
  QCheck.Test.make ~name:"reconstructor == record oracle (bit-exact)"
    ~count:120
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_lr_op))
    (fun ops ->
      let a = LR.create () in
      let b = LRR.create () in
      let packet_size = Qtp.Vtp_wire.packet_size in
      let now = ref 0.0 and seq = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | L_batch { dt; covers; rtt; x_recv } ->
              now := !now +. dt;
              (* the live side streams through a batch, the oracle
                 takes the equivalent cover list — also pins the
                 batch API against the list API *)
              let batch = LR.begin_batch a in
              let cl =
                List.map
                  (fun (gap, was_retx) ->
                    seq := !seq + gap;
                    let sent_at = Float.max 0.0 (!now -. rtt) in
                    LR.push_cover a ~seq:(Packet.Serial.of_int !seq) ~sent_at
                      ~was_retx ~rtt ~x_recv;
                    {
                      Scoreboard_lists.cov_seq = Packet.Serial.of_int !seq;
                      cov_sent_at = sent_at;
                      cov_was_retx = was_retx;
                    })
                  covers
              in
              LR.end_batch a batch;
              LRR.on_covers b ~covers:cl ~rtt ~x_recv ~packet_size
          | L_ce { marks; rtt; x_recv } ->
              LR.on_ce_marks a ~new_marks:marks ~rtt ~x_recv;
              LRR.on_ce_marks b ~new_marks:marks ~rtt ~x_recv ~packet_size
          | L_handover { policy; bw; link_rtt } ->
              let link = link_of (bw, link_rtt) in
              LR.on_handover a ~policy:(policy_of policy) ~link;
              LRR.on_handover b ~policy:(policy_of policy) ~packet_size ~link);
          feq (LR.loss_event_rate a) (LRR.loss_event_rate b)
          && LR.loss_events a = LRR.loss_events b)
        ops)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sender_parity; prop_receiver_parity; prop_reconstructor_parity ]
