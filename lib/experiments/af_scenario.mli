(** The DiffServ/AF assurance scenario shared by E1 and E2.

    One flow under test crosses an AF-class RIO bottleneck with a
    committed (edge-marked) rate [g]; unresponsive Poisson excess
    traffic loads the class beyond its capacity.  The question is
    whether the transport actually collects the assured [g]. *)

type proto =
  | Tcp_newreno  (** the baseline that "fails to deliver this QoS" *)
  | Qtp_af  (** gTFRC (floor at g) + full reliability *)
  | Tfrc_full_nofloor
      (** ablation: same composition but without the gTFRC floor *)

val proto_name : proto -> string

type result = {
  achieved_wire_bps : float;  (** delivered goodput scaled to wire bytes *)
  retransmissions : int;
  bottleneck_green_drops : int;
}

val run :
  seed:int ->
  g_mbps:float ->
  proto:proto ->
  ?bottleneck_mbps:float ->
  ?excess_mbps:float ->
  ?link_loss:float ->
  ?duration:float ->
  unit ->
  result
(** [duration] (default {!Common.duration}) is the virtual run length —
    the examples' smoke tests shorten it.  The bottleneck runs at
    [bottleneck_mbps] (default 10) with a 30 ms delay; [excess_mbps]
    (default 8) of excess load arrives as four Poisson aggregates.
    [link_loss] adds random non-congestion loss on the bottleneck (a
    lossy AF path, e.g. a wireless segment inside the class): green
    packets die too, TFRC's equation share drops below [g], and only the
    gTFRC floor preserves the assurance. *)
