(* The host's speed at a moment, read off two reference kernels.

   The benchmark shares a 2-core KVM guest, and the machine under it,
   with other tenants.  Their load slows everything the benchmark runs
   by up to ~1.8x, in phases of tens of seconds, and with several
   levels: neither a longer measurement nor the fastest run of one
   gets out of them.  So each timed slice of work is followed by the
   kernels, and its wall time is scaled by how much slower than on the
   idle host they ran.

   The two kernels see the two sides of the contention: [cpu] is an
   arithmetic loop over 32 KB, which slows when the core is shared;
   [mem] makes random reads and writes over 16 MB, which slow when the
   memory system is.  Neither allocates: [mem]'s arrays live outside
   the OCaml heap, so the kernels leave the heap the benchmark measures
   alone and start no collection whose cost would depend on it.

   A slice of simulation slows like [cpu] times the fourth root of
   [mem].  That model was fitted on two recordings of slices
   interleaved with both kernels on a contended host: 8 minutes of
   all five workloads' runs in turn, and 5 minutes of af_mix_500's
   (with the same walk over heap records in place of [mem]).
   Over runs of the same work it cut the spread (quartile distance
   over median) from 0.20-0.35 to 0.04-0.12 in all six
   workload-recording pairs, where [cpu] alone left up to 0.20 and
   [mem] alone up to 0.29. *)

let small = Array.make 4096 0

let cpu () =
  let t0 = Span.now () in
  let x = ref 12345 in
  for i = 1 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 4095 in
    small.(j) <- small.(j) + i
  done;
  Span.now () - t0

let slots = 1 lsl 19

let index =
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout slots (fun i -> 3 * i)

let data =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (3 * slots) in
  Bigarray.Array1.fill a 0;
  a

let mem () =
  let t0 = Span.now () in
  let x = ref 777 in
  for i = 1 to 20_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let p = index.{(!x lsr 11) land (slots - 1)} in
    data.{p} <- data.{p} + i;
    data.{p + 1} <- data.{p + 1} + 1
  done;
  Span.now () - t0

(* Each kernel's time right after a slice of simulation on the idle
   host, a 2-core x86 KVM guest (Xeon, 4 MB L2): a tenth of the
   recorded samples are faster.  Only ratios between commits matter;
   on other hardware the corrected times are in that guest's
   seconds. *)
let cpu_nominal_ns = 264_000.0

let mem_nominal_ns = 428_000.0

(* How much faster than now the idle host would be.  Contention only
   adds time, so a host the kernels find faster than idle is taken as
   idle: no slice is stretched past its wall time. *)
let speedup () =
  let m = float_of_int (mem ()) in
  let c = float_of_int (cpu ()) in
  Float.min 1.0 (cpu_nominal_ns /. c *. Float.pow (mem_nominal_ns /. m) 0.25)

(* [timed f] runs [f]: its wall time in ns, and the wall time corrected
   to the idle host. *)
let timed f =
  let t0 = Span.now () in
  f ();
  let ns = Span.now () - t0 in
  (ns, float_of_int ns *. speedup ())
