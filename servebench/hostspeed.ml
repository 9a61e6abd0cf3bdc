(* Host-speed calibration. On a shared VM the same code runs up to
   about 1.7x slower for seconds to minutes at a time, when a
   neighbour loads the physical core; steal time stays near zero, so
   CPU time slows as much as wall time. The load generator therefore
   times this fixed kernel — the benchmark's own code, not the
   program's — between requests, and the served time metrics are
   reported scaled by [ref_ms / median kernel ms] over the measured
   window: as they would read on a host where the kernel takes
   [ref_ms]. A change to the program does not move the kernel, so it
   moves the scaled metrics as much as the raw ones.

   The kernel is core-bound: a dependent chase through a 1 MB table,
   which stays in the L2 cache, and a dependent integer loop. On a
   2-vCPU VM its run median tracked the server's run-to-run speed
   (correlation 0.97, slope 1.05 over 6 [ingest] runs), while a chase
   through 16 MB of the shared L3 did not (correlation 0.07). *)

let ref_ms = 8.0

let table =
  lazy
    (let n = 1 lsl 17 in
     Array.init n (fun i -> ((i * 2654435761) + 12345) land (n - 1)))

(* One timed run of the kernel, in nanoseconds. *)
let kernel () =
  let a = Lazy.force table in
  let t0 = Common.now_ns () in
  let j = ref 0 in
  for _ = 1 to 300_000 do
    j := a.(!j)
  done;
  let s = ref !j in
  for i = 1 to 1_200_000 do
    s := !s + (i * i mod 7)
  done;
  ignore (Sys.opaque_identity !s);
  Common.now_ns () - t0

(* How much slower than the reference host the kernel ran: the median
   of its timings (ns) over [ref_ms]. A time metric is divided by it,
   a rate multiplied. *)
let slowdown kernel_ns = Common.median kernel_ns /. 1e6 /. ref_ms
