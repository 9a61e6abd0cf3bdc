(* Served-path benchmark for Kaskade: a server process over a seeded
   provenance graph with views materialized for the lineage shapes,
   driven over its Unix socket by this process, every reply checked.

     main.exe --workload lineage|lookup|ingest --seed N --seconds S --trace 0|1
     main.exe selftest            # every workload, both modes, briefly
     main.exe serve --socket P [--data-dir D] [--deadline S]   # the server child

   [--trace 0] runs the served load and prints the end-to-end metrics;
   [--trace 1] runs it for half the time, then the serial traced run
   for the other half, and prints the per-layer metrics. The last line
   of stdout is the JSON result; LAYERS.md maps every metric to its
   layer and to the end-to-end number it should move. *)

open Common

(* Set-ups per [--trace 0] run; [setup_s] is their median. *)
let setups = 11
let warmup_s = 0.5

(* Length of the trailing write phase the traced mode's served run ends
   with on [lineage] and [lookup]: at most 4s, less on short runs. *)
let trailing_write_s seconds = Float.min 4.0 (0.3 *. seconds)

(* A run that has not finished by then is killed, with its server. *)
let watchdog_s = 170

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ---- provenance stamp ---------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let commit () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match trim (read_file (Filename.concat ".git" r)) with
    | exception Sys_error _ -> "none"
    | sha -> sha)
  | sha -> sha

(* Digest of the library and benchmark sources: identifies the code
   measured even in a checkout without git metadata. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
             else [])
  in
  files "lib" @ files "servebench"
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let stamp kind ~seed ~trace =
  Printf.printf "# servebench workload=%s seed=%d trace=%d cores=%d ocaml=%s commit=%s src=%s\n"
    (Workload.name kind) seed trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) (source_digest ())

(* ---- result line ---------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun { name; value; unit_ } ->
        if not (Float.is_finite value) then
          fail "metric %s has no value" name;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

(* ---- the served run --------------------------------------------------- *)

type served = {
  outcome : Loadgen.outcome;
  rss_mb : float;
  verdict : Oracle.verdict;
}

let served kind ~seed ~seconds ~trailing_write_s ~run_dir g =
  let srv = Proc.spawn kind ~run_dir ~tag:"served" ~deadline_s:(seconds +. 120.0) in
  let initial_version =
    let c = Conn.connect srv.Proc.socket in
    Fun.protect ~finally:(fun () -> Conn.close c) (fun () -> Conn.int_field (Conn.expect_ok c "OPEN") "version")
  in
  let conns, outcome =
    Loadgen.run kind ~socket:srv.Proc.socket ~stream:(Workload.stream kind ~seed)
      ~batches:(Workload.batches g ~seed) ~warmup_s ~read_s:seconds ~trailing_write_s
  in
  let rss_mb = Proc.peak_rss_mb srv in
  Proc.teardown srv conns;
  let verdict = Oracle.check g ~initial_version outcome in
  List.iteri (fun i msg -> if i < 5 then log "oracle: %s" msg) verdict.mismatches;
  { outcome; rss_mb; verdict }

(* Samples whose time stamp — send time for reads, due time for
   writes — falls inside the measured window, cut into equal time
   slices: up to 10, with at least [min_slice] samples each on average.
   A statistic is reported as its median over the slices: on a shared
   host, a few seconds of interference from a neighbour then move one
   or two slices, not the result. *)
let max_slices = 10
let min_slice = 64

let sliced (lo, hi) samples =
  let inside = List.filter (fun (t, _) -> t >= lo && t < hi) samples in
  let n = Stdlib.max 1 (Stdlib.min max_slices (List.length inside / min_slice)) in
  let by_slice = Array.make n [] in
  List.iter
    (fun (t, v) ->
      let i = (t - lo) * n / (hi - lo) in
      by_slice.(i) <- v :: by_slice.(i))
    inside;
  Array.map Array.of_list by_slice

let over_slices stat by_slice =
  median (Array.map stat (Array.of_seq (Seq.filter (fun a -> a <> [||]) (Array.to_seq by_slice))))

let read_ms (o : Loadgen.outcome) =
  sliced o.read_window (List.map (fun (r : Loadgen.read) -> (r.sent_ns, ms_of_ns r.read_ns)) o.reads)

let write_ms (o : Loadgen.outcome) f =
  sliced o.write_window (List.map (fun (w : Loadgen.write) -> (w.due_ns, ms_of_ns (f w))) o.writes)

let count by_slice = Array.fold_left (fun n a -> n + Array.length a) 0 by_slice

(* Host-speed kernel timings (ns) of the measured read window — or of
   the whole run, when that window is too short to hold one. They also
   stand for the trailing write phase, which has none. *)
let kernels (o : Loadgen.outcome) =
  let ns l = Array.of_list (List.map (fun (_, ns) -> float_of_int ns) l) in
  match List.filter (fun (t, _) -> t >= fst o.read_window) o.kernels with
  | [] -> ns o.kernels
  | measured -> ns measured

let nonempty what by_slice =
  if count by_slice = 0 then fail "no %s completed in the measured window" what

let summary kind (s : served) =
  let o = s.outcome in
  Printf.printf
    "# %s served: %d reads measured (%d total), %d writes measured (%d total), %d attempted, %d \
     failed; oracle checked %d reads and %d writes, %d mismatches; host-speed kernel %.2f ms \
     (median of %d, reference %.1f ms)\n"
    (Workload.name kind)
    (count (read_ms o))
    (List.length o.reads)
    (count (write_ms o (fun w -> w.write_ns)))
    (List.length o.writes) o.attempted o.failed s.verdict.checked_reads s.verdict.checked_writes
    (List.length s.verdict.mismatches)
    (median (kernels o) /. 1e6) (List.length o.kernels) Hostspeed.ref_ms

(* [setups] timed set-ups, each with the host-speed kernel run twice
   before it and twice after it; returns the median set-up time, scaled
   to the reference host by the median of those kernel runs. *)
let setup_s kind ~run_dir =
  let ks = ref [] in
  let k () = ks := float_of_int (Hostspeed.kernel ()) :: !ks in
  let once i =
    k ();
    k ();
    let srv = Proc.spawn kind ~run_dir ~tag:(Printf.sprintf "setup%d" i) ~deadline_s:60.0 in
    k ();
    k ();
    Proc.teardown srv [];
    float_of_int srv.Proc.setup_ns /. 1e9
  in
  let times = Array.init setups once in
  median times /. Hostspeed.slowdown (Array.of_list !ks)

let end_to_end kind ~seed ~seconds ~run_dir =
  let g = Workload.generate () in
  let setup = setup_s kind ~run_dir in
  let s = served kind ~seed ~seconds ~trailing_write_s:0.0 ~run_dir g in
  summary kind s;
  let reads = read_ms s.outcome in
  nonempty "read" reads;
  let lo, hi = s.outcome.read_window in
  let slice_s = float_of_int (hi - lo) /. 1e9 /. float_of_int (Array.length reads) in
  let slowdown = Hostspeed.slowdown (kernels s.outcome) in
  ( s.verdict.mismatches = [],
    s.outcome.attempted,
    s.outcome.failed,
    [
      m "setup_s" "s" setup;
      m "read_p90_ms" "ms" (over_slices (quantile 0.9) reads /. slowdown);
      m "read_qps" "1/s" (over_slices (fun a -> float_of_int (Array.length a) /. slice_s) reads *. slowdown);
      m "server_rss_mb" "MB" s.rss_mb;
    ] )

let per_layer kind ~seed ~seconds ~run_dir =
  let g = Workload.generate () in
  let half = seconds /. 2.0 in
  let s = served kind ~seed ~seconds:half ~trailing_write_s:(trailing_write_s half) ~run_dir g in
  summary kind s;
  let reads = read_ms s.outcome in
  let late = write_ms s.outcome (fun w -> w.late_ns) in
  let writes = write_ms s.outcome (fun w -> w.write_ns) in
  nonempty "write" writes;
  let writes_per_read =
    float_of_int (List.length s.outcome.writes) /. float_of_int (Stdlib.max 1 (List.length s.outcome.reads))
  in
  let slowdown = Hostspeed.slowdown (kernels s.outcome) in
  let t = Traced.run kind ~seed ~seconds:half ~writes_per_read ~run_dir in
  Printf.printf
    "# %s traced: %d reads, %d batches; expand steps per read: base %.1f, view route %.1f, \
     session.run %.1f\n"
    (Workload.name kind) t.reads t.batches t.expand_steps_base t.expand_steps_view
    t.expand_steps_session;
  let guard = Traced.guard kind t in
  Option.iter (log "guard: %s") guard;
  let timings =
    List.concat_map
      (fun (name, xs) ->
        let unit_ = if Filename.check_suffix name "_s" then "s" else "us" in
        m name unit_ (median xs)
        :: (if unit_ = "us" then [ m (name ^ ".p99") unit_ (p99 xs) ] else []))
      t.timings
  in
  let attempted = s.outcome.attempted and failed = s.outcome.failed in
  ( s.verdict.mismatches = [] && guard = None,
    attempted,
    failed,
    timings
    @ [
        m "kaskade.plan_cache_hit_frac" "ratio" t.plan_cache_hit_frac;
        m "kaskade.view_route_frac" "ratio" t.view_route_frac;
        m "executor.expand_steps_base" "count" t.expand_steps_base;
        m "executor.expand_steps_view" "count" t.expand_steps_view;
        m "executor.rows" "count" t.rows;
        m "wal.fsyncs_per_batch" "count" t.fsyncs_per_batch;
        m "wal.bytes_per_batch" "bytes" t.bytes_per_batch;
        m "maintain.refreshes_per_batch" "count" t.refreshes_per_batch;
        m "loadgen.read_p50_ms" "ms" (over_slices median reads /. slowdown);
        m "loadgen.read_p99_ms" "ms" (over_slices p99 reads /. slowdown);
        m "loadgen.write_p50_ms" "ms" (over_slices median writes /. slowdown);
        m "loadgen.write_p99_ms" "ms" (over_slices p99 writes /. slowdown);
        m "loadgen.late_p99_ms" "ms" (over_slices p99 late);
        m "loadgen.kernel_ms" "ms" (median (kernels s.outcome) /. 1e6);
        m "failed_frac" "ratio"
          (float_of_int (failed + t.failed) /. float_of_int (attempted + t.reads + t.batches));
      ] )

(* ---- entry points ----------------------------------------------------- *)

(* Scratch space of this run: sockets and data directories. *)
let run_dir = Filename.concat ".servebench" (string_of_int (Unix.getpid ()))

let make_run_dir () =
  mkdir_p (Filename.dirname run_dir);
  rm_rf run_dir;
  mkdir_p run_dir

let remove_run_dir () =
  rm_rf run_dir;
  try Unix.rmdir (Filename.dirname run_dir) with Unix.Unix_error _ -> ()

(* One measured run; returns whether it was correct. *)
let bench kind ~seed ~seconds ~trace =
  make_run_dir ();
  Fun.protect
    ~finally:(fun () ->
      Proc.kill_all ();
      remove_run_dir ())
    (fun () ->
      stamp kind ~seed ~trace:(Bool.to_int trace);
      let correct, attempted, failed, metrics =
        if trace then per_layer kind ~seed ~seconds ~run_dir
        else end_to_end kind ~seed ~seconds ~run_dir
      in
      print_result ~correct ~attempted ~failed metrics;
      correct)

(* The watchdog, and SIGINT/SIGTERM, kill the server and remove the
   run's scratch files before exiting. *)
let with_watchdog seconds f =
  let abort why =
    Sys.Signal_handle
      (fun _ ->
        log "%s; killing the server and giving up" why;
        Proc.kill_all ();
        remove_run_dir ();
        exit 2)
  in
  Sys.set_signal Sys.sigalrm (abort (Printf.sprintf "watchdog: run exceeded %ds" seconds));
  Sys.set_signal Sys.sigint (abort "interrupted");
  Sys.set_signal Sys.sigterm (abort "terminated");
  ignore (Unix.alarm seconds);
  f ()

let usage () =
  prerr_endline
    "usage: main.exe --workload lineage|lookup|ingest --seed N --seconds S --trace 0|1\n\
    \       main.exe selftest\n\
    \       main.exe serve --socket PATH [--data-dir DIR] [--deadline S]";
  exit 2

let rec opts = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> (k, v) :: opts rest
  | [] -> []
  | _ -> usage ()

let opt o k = List.assoc_opt k o

let req o k =
  match opt o k with
  | Some v -> v
  | None ->
    prerr_endline ("missing " ^ k);
    usage ()

let num o k of_string =
  match of_string (req o k) with
  | Some v -> v
  | None ->
    prerr_endline ("bad value for " ^ k);
    usage ()

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "serve" :: rest ->
        let o = opts rest in
        Proc.serve ~socket:(req o "--socket") ~data_dir:(opt o "--data-dir")
          ~deadline_s:(Option.value ~default:300.0 (Option.bind (opt o "--deadline") float_of_string_opt));
        0
      | [ "selftest" ] ->
        (* Every workload in both modes, briefly, oracle and guards on. *)
        with_watchdog 600 (fun () ->
            let ok =
              List.for_all
                (fun kind ->
                  List.for_all
                    (fun trace -> bench kind ~seed:1 ~seconds:1.0 ~trace)
                    [ false; true ])
                Workload.kinds
            in
            prerr_endline (if ok then "selftest passed" else "selftest FAILED");
            if ok then 0 else 1)
      | args ->
        let o = opts args in
        let kind = Workload.of_name (req o "--workload") in
        let seed = num o "--seed" int_of_string_opt in
        let seconds = num o "--seconds" float_of_string_opt in
        let trace = num o "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
        with_watchdog watchdog_s (fun () -> if bench kind ~seed ~seconds ~trace then 0 else 1)
    with e ->
      log "FAILED: %s" (match e with Bench_failure msg -> msg | e -> Printexc.to_string e);
      Proc.kill_all ();
      1
  in
  exit code
