(* The system under test as its own process: [serve] is the child's
   entry point (build the facade, materialize views, serve the
   socket); [spawn]/[teardown] are the parent's side. The server runs
   out of process because [Server]'s per-connection systhreads share
   one OCaml runtime lock, which an in-process load generator would
   compete for. *)

module Graph = Kaskade_graph.Graph
module Server = Kaskade_serve.Server
open Common

(* The facade both sides build: the seeded graph, durable when the
   workload asks for it, with views selected for the lineage shapes
   under a budget of the base edge count and materialized. Returns the
   facade and the nanoseconds spent selecting and materializing. *)
let facade ?data_dir g =
  let ks = Kaskade.make ~config:{ Kaskade.Config.default with data_dir } g in
  let sel, select_ns =
    timed (fun () ->
        Kaskade.select_views ks ~queries:(Workload.view_queries ()) ~budget_edges:(Graph.n_edges g))
  in
  let entries, materialize_ns = timed (fun () -> Kaskade.materialize_selected ks sel) in
  if entries = [] then fail "view selection chose no view for the lineage shapes";
  (ks, select_ns, materialize_ns)

(* Child: serve until SHUTDOWN, the deadline, or the parent's death —
   whichever comes first. A watchdog thread enforces the last two, so
   an orphaned server never outlives its benchmark run. *)
let serve ~socket ~data_dir ~deadline_s =
  let parent = Unix.getppid () in
  let ks, _, _ = facade ?data_dir (Workload.generate ()) in
  let server = Server.create ~socket ks in
  let stop_at = now_s () +. deadline_s in
  ignore
    (Thread.create
       (fun () ->
         while Unix.getppid () = parent && now_s () < stop_at do
           Unix.sleepf 0.1
         done;
         Server.shutdown server;
         Unix.sleepf 2.0;
         Unix._exit 3)
       ());
  Server.run server

type t = { pid : int; socket : string; data_dir : string option; setup_ns : int }

(* Servers not yet reaped, killed by [kill_all] on any abnormal exit. *)
let live : (int, t) Hashtbl.t = Hashtbl.create 4

let cleanup t =
  Hashtbl.remove live t.pid;
  (try Sys.remove t.socket with Sys_error _ -> ());
  Option.iter rm_rf t.data_dir

(* Wait up to [timeout_s] for [pid] to exit; SIGKILL it after that.
   Returns [true] when it exited on its own. *)
let reap ?(timeout_s = 10.0) pid =
  let stop_at = now_s () +. timeout_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_s () < stop_at ->
      Unix.sleepf 0.005;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  poll ()

let kill_all () =
  Hashtbl.to_seq_values live |> List.of_seq
  |> List.iter (fun t ->
         (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
         ignore (reap ~timeout_s:5.0 t.pid);
         cleanup t)

let ping socket =
  match Conn.connect socket with
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> false
  | c ->
    Fun.protect ~finally:(fun () -> Conn.close c) (fun () ->
        ignore (Conn.expect_ok c "PING");
        true)

(* Start a server for [kind] and wait for its first PING OK: the
   elapsed time is the set-up time a user waits for — process start,
   graph generation, view selection and materialization. *)
let spawn kind ~run_dir ~tag ~deadline_s =
  let socket = Filename.concat run_dir (tag ^ ".sock") in
  let data_dir =
    if Workload.durable kind then Some (Filename.concat run_dir (tag ^ ".data")) else None
  in
  Option.iter rm_rf data_dir;
  let args =
    [ Sys.executable_name; "serve"; "--socket"; socket; "--deadline"; string_of_float deadline_s ]
    @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []
  in
  let t0 = now_ns () in
  (* The child's stdout goes to our stderr: our stdout carries only
     the result. *)
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr in
  let t = { pid; socket; data_dir; setup_ns = 0 } in
  Hashtbl.replace live pid t;
  let stop_at = now_s () +. 60.0 in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      cleanup t;
      fail "server for %s exited during set-up" (Workload.name kind));
    if ping socket then now_ns ()
    else if now_s () > stop_at then fail "server for %s not ready after 60s" (Workload.name kind)
    else begin
      Unix.sleepf 0.001;
      wait ()
    end
  in
  let ready = wait () in
  { t with setup_ns = ready - t0 }

(* Peak resident set of the server (VmHWM), in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> fail "no VmHWM for server %d" t.pid
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> find ()
      in
      find ())

(* Close every client connection first — [Server.run] drains open
   handlers before it returns — then SHUTDOWN, reap the process and
   remove its socket and data directory. *)
let teardown t conns =
  List.iter Conn.close conns;
  (try
     let c = Conn.connect t.socket in
     Fun.protect ~finally:(fun () -> Conn.close c) (fun () -> ignore (Conn.request c "SHUTDOWN"))
   with Unix.Unix_error _ | End_of_file | Bench_failure _ -> ());
  let clean = reap t.pid in
  cleanup t;
  if not clean then fail "server %d did not exit within 10s of SHUTDOWN (killed)" t.pid
