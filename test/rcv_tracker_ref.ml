module Serial = Packet.Serial

type range = {
  mutable lo : Serial.t;
  mutable hi : Serial.t;  (* half-open *)
  mutable touched : int;  (* recency stamp *)
}

type t = {
  cost : Stats.Cost.t option;
  mutable cum : Serial.t;
  mutable ranges : range list;  (* ascending, disjoint, above cum *)
  scratch : range array;  (* reused top-k buffer for {!sack_blocks} *)
  mutable stamp : int;
  mutable packets : int;
  mutable duplicates : int;
}

let dummy_range = { lo = Serial.zero; hi = Serial.zero; touched = -1 }

let create ?(max_blocks = 4) ?cost () =
  assert (max_blocks >= 1);
  {
    cost;
    cum = Serial.zero;
    ranges = [];
    scratch = Array.make max_blocks dummy_range;
    stamp = 0;
    packets = 0;
    duplicates = 0;
  }

let charge t name =
  match t.cost with Some c -> Stats.Cost.charge c name | None -> ()

let cum_ack t = t.cum

(* Closure-free containment test: [received] runs per segment, so the
   former [List.exists (fun r -> ...)] lambda is lifted to a plain
   recursion that allocates nothing. *)
let[@vtp.hot] rec ranges_cover s = function
  | [] -> false
  | r :: rest ->
      (Serial.( <= ) r.lo s && Serial.( < ) s r.hi) || ranges_cover s rest

let[@vtp.hot] received t s =
  Serial.( < ) s t.cum || ranges_cover s t.ranges

(* Deliberate-bug hook for the fuzz harness's negative test: with the
   duplicate check disabled, a duplicated segment re-inserts a range
   that may sit below (or inside) already-acknowledged territory, and
   the bogus block leaks into SACK reports — which the sack-wellformed
   invariant must catch.  Never set outside tests. *)
let[@vtp.ambient] test_only_skip_dup_check = ref false

(* Pull ranges that now touch the cumulative point into it. *)
let[@vtp.hot] rec advance_cum t =
  match t.ranges with
  | r :: rest when Serial.( <= ) r.lo t.cum ->
      if Serial.( > ) r.hi t.cum then t.cum <- r.hi;
      t.ranges <- rest;
      advance_cum t
  | _ :: _ | [] -> ()

(* Insert [seq,s1) into the ascending range list, merging neighbours.
   Lifted out of {!on_data} so the per-segment path builds no closure;
   it allocates only the list spine it rewrites (alloc-by-design). *)
let[@vtp.alloc_ok] rec insert_range ~stamp seq s1 = function
  | [] -> [ { lo = seq; hi = s1; touched = stamp } ]
  | r :: rest ->
      if Serial.( < ) s1 r.lo then
        { lo = seq; hi = s1; touched = stamp } :: r :: rest
      else if Serial.equal s1 r.lo then begin
        r.lo <- seq;
        r.touched <- stamp;
        r :: rest
      end
      else if Serial.equal seq r.hi then begin
        r.hi <- s1;
        r.touched <- stamp;
        (* May now touch the next range. *)
        match rest with
        | next :: tail when Serial.equal next.lo r.hi ->
            r.hi <- next.hi;
            r :: tail
        | _ -> r :: rest
      end
      else r :: insert_range ~stamp seq s1 rest

let[@vtp.hot] on_data t ~seq =
  charge t "recv.light.packet";
  t.packets <- t.packets + 1;
  t.stamp <- t.stamp + 1;
  if (not !test_only_skip_dup_check) && received t seq then
    t.duplicates <- t.duplicates + 1
  else if Serial.equal seq t.cum then begin
    t.cum <- Serial.succ t.cum;
    advance_cum t
  end
  else t.ranges <- insert_range ~stamp:t.stamp seq (Serial.succ seq) t.ranges

let apply_fwd_point t fwd =
  if Serial.( > ) fwd t.cum then begin
    t.cum <- fwd;
    (* Drop or trim ranges now below the cumulative point. *)
    t.ranges <-
      List.filter_map
        (fun r ->
          if Serial.( <= ) r.hi t.cum then None
          else begin
            if Serial.( < ) r.lo t.cum then r.lo <- t.cum;
            Some r
          end)
        t.ranges;
    advance_cum t
  end

let to_block r = { Packet.Header.block_start = r.lo; block_end = r.hi }

let all_ranges t = List.map to_block t.ranges

let highest_expected t =
  let rec last = function
    | [] -> t.cum
    | [ r ] -> r.hi
    | _ :: rest -> last rest
  in
  last t.ranges

(* Most-recently-touched [max_blocks] ranges, newest first (recency
   stamps are unique, so the selection is deterministic).  A bounded
   insertion pass over a reused scratch array replaces the former
   sort-whole-list / filter / map chain: only the returned blocks are
   allocated. *)
let sack_blocks t =
  charge t "recv.light.feedback";
  let top = t.scratch in
  let k = Array.length top in
  let count = ref 0 in
  List.iter
    (fun r ->
      if !count < k || r.touched > top.(k - 1).touched then begin
        let i = ref (Stdlib.min !count (k - 1)) in
        while !i > 0 && top.(!i - 1).touched < r.touched do
          top.(!i) <- top.(!i - 1);
          decr i
        done;
        top.(!i) <- r;
        if !count < k then incr count
      end)
    t.ranges;
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (to_block top.(i) :: acc)
  in
  let blocks = build (!count - 1) [] in
  Array.fill top 0 k dummy_range;
  blocks

let packets t = t.packets

let duplicates t = t.duplicates
