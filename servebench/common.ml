(* Small helpers shared by the benchmark's modules: clocks, order
   statistics, metric-registry reads, scratch-directory hygiene, and
   the typed failure every check raises. *)

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Bench_failure msg)) fmt
let now_ns () = Int64.to_int (Kaskade_util.Mclock.now_ns ())
let now_s = Kaskade_util.Mclock.now_s
let us_of_ns ns = float_of_int ns /. 1e3
let ms_of_ns ns = float_of_int ns /. 1e6

(* Time [f ()] on the monotonic clock; returns the result and the
   elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Linear-interpolated quantile of an unsorted sample ([q] in
   [0, 1]); [nan] for an empty one. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = Stdlib.min (n - 1) (i + 1) in
    s.(i) +. ((pos -. float_of_int i) *. (s.(j) -. s.(i)))
  end

let median xs = quantile 0.5 xs
let p99 xs = quantile 0.99 xs

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Kaskade_obs.Metrics.counters_list ()))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path = if not (Sys.file_exists path) then Unix.mkdir path 0o755

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("servebench: " ^ s)) fmt
