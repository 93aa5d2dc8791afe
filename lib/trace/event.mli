(** Typed protocol events — the vocabulary of the flight recorder.

    One constructor per protocol occurrence the paper's claims are
    stated over: data-segment emission and arrival, SACK and RFC 3448
    feedback in both directions, TFRC loss events (receiver-side and
    sender-reconstructed), rate updates with every input the equation
    saw, RTT samples, loss inference and repair decisions, capability
    negotiation, teardown, in-network drops and the TCP baseline's
    send/ack stream.

    One rendering, {!pp_canonical}: a compact single-line text form
    whose bytes are a pure function of the event value (floats print as
    lossless hexadecimal literals), used for golden-trace digests and
    diffs.

    Events deliberately carry no frame uids: uids are drawn from one
    stream per domain that runs on across simulations, so including
    them would make an otherwise deterministic trace differ between two
    runs in one process. *)

type side = S_sender | S_receiver
(** Where a loss event was detected: the RFC 3448 receiver, or the
    QTP_light sender reconstructing from SACK coverage. *)

type infer = I_dupthresh | I_timeout
(** How the scoreboard inferred a loss: SACK coverage above the hole, or
    retransmission-timeout expiry. *)

type drop_reason = D_loss | D_queue | D_cut
(** Why a link dropped a frame: its non-congestion loss model, the
    qdisc refusing the enqueue, or a severed link discarding traffic
    during a [`Cut]-mode handover. *)

type t =
  | Seg_send of { seq : Packet.Serial.t; size : int; retx : bool }
      (** a data segment left the sender (original or repair) *)
  | Seg_recv of { seq : Packet.Serial.t; size : int; ce : bool; retx : bool }
      (** a data segment reached the receiver *)
  | Sack_sent of { cum_ack : Packet.Serial.t; blocks : int; x_recv : float }
  | Sack_rcvd of {
      cum_ack : Packet.Serial.t;
      blocks : int;
      acked : int;  (** covers newly acknowledged cumulatively *)
      sacked : int;  (** covers newly SACKed *)
      lost : int;  (** fresh loss inferences this report triggered *)
    }
  | Fb_sent of { x_recv : float; p : float }
      (** RFC 3448 receiver report emitted *)
  | Fb_rcvd of { x_recv : float; p : float }
      (** RFC 3448 receiver report consumed by the sender *)
  | Loss_event of { side : side; events : int; p : float }
      (** the loss history opened a new loss event; [events] is the
          running total, [p] the rate after it *)
  | Loss_inferred of { seq : Packet.Serial.t; by : infer }
  | Rate_change of {
      x_bps : float;  (** allowed rate after the update *)
      x_calc_bps : float;  (** equation rate for (rtt, p); inf if p = 0 *)
      x_recv_bps : float;
      p : float;
      slow_start : bool;
    }
  | Rtt_sample of { sample : float; srtt : float }
  | Retransmit of { seq : Packet.Serial.t; count : int }
      (** [count]-th retransmission of [seq] *)
  | Abandoned of { seq : Packet.Serial.t }
      (** the reliability policy gave up on [seq] *)
  | Negotiated of { plane : string; mode : string; g_bps : float }
  | Nego_failed of { reason : string }
  | Conn_state of { state : string }  (** "closing" / "closed" *)
  | Drop of { link : string; reason : drop_reason; size : int }
  | Tcp_send of { seq : Packet.Serial.t; retx : bool }
  | Tcp_ack_rcvd of { cum_ack : Packet.Serial.t; cwnd : float; ssthresh : float }
  | Handover of { from_path : string; to_path : string; cut : bool }
      (** the flow's path migrated between named link pairs; [cut]
          distinguishes [`Cut] (old path severed) from [`Drain] *)

val pp_canonical : Format.formatter -> t -> unit
(** The canonical single-line body (no timestamp).  Floats render as
    lossless hex literals, so equal bytes iff equal values. *)
