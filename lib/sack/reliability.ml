module Serial = Packet.Serial
module Runs = Packet.Runs

type policy =
  | Unreliable
  | Partial of { max_retx : int; deadline : float }
  | Full

let pp_policy fmt = function
  | Unreliable -> Format.pp_print_string fmt "unreliable"
  | Partial { max_retx; deadline } ->
      Format.fprintf fmt "partial(retx<=%d,deadline=%.2fs)" max_retx deadline
  | Full -> Format.pp_print_string fmt "full"

type decision = Retransmit of Serial.t | Fresh_data

type t = {
  policy : policy;
  scoreboard : Scoreboard.t;
  cost : Stats.Cost.t option;
  trace : Trace.Sink.t option;
  queue : Serial.t Queue.t;
  queued : (int, unit) Hashtbl.t;
  (* Abandoned numbers as scoreboard positions ({!Scoreboard.pos}).
     [fwd_point] only reads from [una] upward and trims the set at the
     [una] it leaves behind, so the set never outgrows the window. *)
  gone : Runs.t;
  mutable abandoned : int;
}

let create ?cost ?trace policy ~scoreboard () =
  {
    policy;
    scoreboard;
    cost;
    trace;
    queue = Queue.create ();
    queued = Hashtbl.create 8;
    gone = Runs.create_untagged ();
    abandoned = 0;
  }

let charge t name =
  match t.cost with Some c -> Stats.Cost.charge c name | None -> ()

let key = Serial.to_int

let abandon t seq =
  let a = Scoreboard.pos t.scoreboard seq in
  Runs.cover t.gone a (a + 1);
  t.abandoned <- t.abandoned + 1;
  charge t "send.reliability.abandon";
  if Trace.Sink.on t.trace then
    Trace.Sink.emit t.trace (Trace.Event.Abandoned { seq })

let on_loss t ~now:_ seq =
  match t.policy with
  | Unreliable -> abandon t seq
  | Partial _ | Full ->
      if not (Hashtbl.mem t.queued (key seq)) then begin
        Hashtbl.replace t.queued (key seq) ();
        Queue.add seq t.queue;
        charge t "send.reliability.queue"
      end

let on_losses t ~now losses = List.iter (fun seq -> on_loss t ~now seq) losses

let rec next_decision t ~now =
  match Queue.take_opt t.queue with
  | None -> Fresh_data
  | Some seq -> (
      Hashtbl.remove t.queued (key seq);
      match Scoreboard.status t.scoreboard seq with
      | `Untracked | `Sacked | `In_flight ->
          (* Repaired, delivered, or retransmission already in flight:
             nothing to do for this number any more. *)
          next_decision t ~now
      | `Lost -> (
          match t.policy with
          | Unreliable -> next_decision t ~now
          | Full -> Retransmit seq
          | Partial { max_retx; deadline } ->
              let too_many = Scoreboard.retx_count t.scoreboard seq >= max_retx in
              let too_old =
                match Scoreboard.first_sent_at t.scoreboard seq with
                | Some sent -> now -. sent > deadline
                | None -> true
              in
              if too_many || too_old then begin
                abandon t seq;
                next_decision t ~now
              end
              else Retransmit seq))

let fwd_point t ~highest_sent =
  (* Walk up from snd_una through numbers the receiver need not wait
     for: abandoned holes and SACK-covered (already received) ones.
     Everything below the result is then given up on by the scoreboard
     and forgotten here. *)
  let sb = t.scoreboard in
  let rec go s =
    if Serial.( >= ) s highest_sent then s
    else if Runs.mem t.gone (Scoreboard.pos sb s) then go (Serial.succ s)
    else
      match Scoreboard.status sb s with
      | `Sacked -> go (Serial.succ s)
      | `Untracked -> go (Serial.succ s)
      | `In_flight | `Lost -> s
  in
  let fwd = go (Scoreboard.una sb) in
  Scoreboard.abandon_below sb fwd;
  Runs.trim_below t.gone (Scoreboard.pos sb (Scoreboard.una sb));
  fwd

let abandoned t = t.abandoned

let abandoned_held t =
  let sb = t.scoreboard in
  let una = Scoreboard.una sb in
  let base = Scoreboard.pos sb una in
  let acc = ref [] in
  for i = t.gone.Runs.len - 1 downto t.gone.Runs.fst do
    for a = t.gone.Runs.hi.(i) - 1 downto t.gone.Runs.lo.(i) do
      acc := Serial.add una (a - base) :: !acc
    done
  done;
  !acc

let retransmissions_queued t = Queue.length t.queue
