(* The traced run: the same seeded request stream, replayed serially in
   one process, with each layer's public entry point timed from
   outside and the library's own counters read around it — so every
   end-to-end number breaks down by layer without spans inside the
   library. Each read goes over the socket to a fresh server (the
   round trip) and through the in-process layers on two local facades
   built the same way: [ks] for the facade entry points, [ks_sess]
   behind a [Session] manager for today's served route. Every answer
   is checked against the serial base answer. *)

open Common
module Graph = Kaskade_graph.Graph
module Pool = Kaskade_util.Pool
module Session = Kaskade_serve.Session
module Wire = Kaskade_serve.Wire

(* Per-name samples; timings are reported as median and p99. *)
type samples = (string, float list ref) Hashtbl.t

let add (s : samples) name v =
  match Hashtbl.find_opt s name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add s name (ref [ v ])

let values (s : samples) name =
  match Hashtbl.find_opt s name with
  | Some l -> Array.of_list !l
  | None -> fail "traced run took no %s sample" name

type result = {
  timings : (string * float array) list;  (** Per-call microseconds (seconds for set-up phases). *)
  view_route_frac : float;
  plan_cache_hit_frac : float;
  expand_steps_base : float;
  expand_steps_view : float;
  expand_steps_session : float;
  rows : float;
  fsyncs_per_batch : float;
  bytes_per_batch : float;
  refreshes_per_batch : float;
  reads : int;
  batches : int;
  failed : int;
}

let pool_fanouts = 20

(* Batches the write probe sends after the reads, so every write-side
   layer has samples on every workload. *)
let probe_batches = 20

let run kind ~seed ~seconds ~writes_per_read ~run_dir =
  let s : samples = Hashtbl.create 32 in
  let us ns = us_of_ns ns in
  let g, gen_ns = timed Workload.generate in
  add s "provenance_gen.generate_s" (float_of_int gen_ns /. 1e9);
  let data_dir tag =
    if Workload.durable kind then begin
      let d = Filename.concat run_dir tag in
      rm_rf d;
      Some d
    end
    else None
  in
  let raw_dir = data_dir "traced-raw.data" and sess_dir = data_dir "traced-sess.data" in
  let ks, select_ns, materialize_ns = Proc.facade ?data_dir:raw_dir g in
  add s "selection.select_s" (float_of_int select_ns /. 1e9);
  add s "materialize.views_s" (float_of_int materialize_ns /. 1e9);
  let ks_sess, _, _ = Proc.facade ?data_dir:sess_dir g in
  let pool = Pool.default () in
  for _ = 1 to pool_fanouts do
    let _, ns = timed (fun () -> Pool.map_morsels pool ~grain:1 ~n:2 (fun ~lo:_ ~hi:_ -> ())) in
    add s "pool.empty_fanout_us" (us ns)
  done;
  let srv = Proc.spawn kind ~run_dir ~tag:"traced" ~deadline_s:(seconds +. 120.0) in
  let conn = Conn.connect srv.Proc.socket in
  let remove_dirs () =
    Option.iter rm_rf raw_dir;
    Option.iter rm_rf sess_dir
  in
  (* On failure the server is killed by [Proc.kill_all] at exit. *)
  Fun.protect ~finally:remove_dirs (fun () ->
      ignore (Conn.expect_ok conn "OPEN");
      let mgr = Session.create_manager ks_sess in
      let sess =
        match Session.open_ mgr with
        | Ok x -> x
        | Error e -> fail "local session: %s" (Kaskade.Error.to_string e)
      in
      let failed = ref 0 in
      let mismatch fmt = Printf.ksprintf (fun m -> fail "traced run: %s" m) fmt in
      let delta name f =
        let c0 = counter name in
        let r = f () in
        (r, counter name - c0)
      in
      let routed = ref 0 and hits = ref 0 and lookups = ref 0 in
      let steps_base = ref 0 and steps_view = ref 0 and steps_sess = ref 0 and rows = ref 0 in
      let read text =
        if kind = Workload.Ingest then begin
          ignore (Conn.expect_ok conn "REPIN");
          ignore (Session.repin sess)
        end;
        let line = "Q " ^ text in
        let reply, rtt_ns = timed (fun () -> Conn.request conn line) in
        let kvs = Conn.fields reply in
        if not (Conn.is_ok kvs) then incr failed;
        let _, decode_ns = timed (fun () -> Wire.parse_request line) in
        let q, parse_ns = timed (fun () -> Kaskade.parse_result text) in
        let q = match q with Ok q -> q | Error e -> mismatch "%s" (Kaskade.Error.to_string e) in
        let route, route_ns = timed (fun () -> Kaskade.best_rewriting ks q) in
        if route <> None then incr routed;
        let h0 = counter "kaskade.plan_cache_hits" and m0 = counter "kaskade.plan_cache_misses" in
        let (_, auto_ns), view_steps =
          delta "executor.expand_steps" (fun () -> timed (fun () -> Kaskade.query ks q))
        in
        hits := !hits + counter "kaskade.plan_cache_hits" - h0;
        lookups := !lookups + counter "kaskade.plan_cache_hits" - h0 + counter "kaskade.plan_cache_misses" - m0;
        let ((base, base_ns), base_steps), base_rows =
          delta "executor.rows_produced" (fun () ->
              delta "executor.expand_steps" (fun () ->
                  timed (fun () -> Kaskade.query ~target:Kaskade.Base ks q)))
        in
        let (served, run_ns), sess_steps =
          delta "executor.expand_steps" (fun () -> timed (fun () -> Session.run sess q))
        in
        let served =
          match served with Ok r -> r | Error e -> mismatch "%s" (Kaskade.Error.to_string e)
        in
        let sum, render_ns =
          timed (fun () -> Wire.checksum (Wire.render_result (Session.pinned_graph sess) served))
        in
        let base_sum =
          match base with
          | Ok (r, _) -> Wire.checksum (Wire.render_result (Kaskade.graph ks) r)
          | Error e -> mismatch "%s" (Kaskade.Error.to_string e)
        in
        if sum <> base_sum then mismatch "session.run differs from the base answer: %s" text;
        if Conn.is_ok kvs && Conn.field kvs "checksum" <> base_sum then
          mismatch "served reply differs from the base answer: %s" text;
        steps_view := !steps_view + view_steps;
        steps_base := !steps_base + base_steps;
        steps_sess := !steps_sess + sess_steps;
        rows := !rows + base_rows;
        add s "wire.decode_us" (us decode_ns);
        add s "qparser.parse_us" (us parse_ns);
        add s "kaskade.route_us" (us route_ns);
        add s "kaskade.query_auto_us" (us auto_ns);
        add s "kaskade.query_base_us" (us base_ns);
        add s "session.run_us" (us run_ns);
        add s "wire.render_us" (us render_ns);
        add s "server.unaccounted_us" (us (rtt_ns - decode_ns - parse_ns - run_ns - render_ns))
      in
      let fsyncs = ref 0 and bytes = ref 0 and refreshes = ref 0 and batches_done = ref 0 in
      let batches = Workload.batches g ~seed in
      let write () =
        let ops = batches.next_batch () in
        let n = List.length ops in
        let kvs = Conn.expect_ok conn (Workload.update_line ops) in
        if Conn.int_field kvs "applied" <> n then mismatch "served UPDATE applied %s of %d" (Conn.field kvs "applied") n;
        let r, submit_ns = timed (fun () -> Session.submit mgr ops) in
        (match r with
        | Ok (applied, _) when applied = n -> ()
        | Ok (applied, _) -> mismatch "Session.submit applied %d of %d" applied n
        | Error e -> mismatch "Session.submit: %s" (Kaskade.Error.to_string e));
        let f0 = counter "kaskade.wal_fsyncs" and b0 = counter "kaskade.wal_bytes" in
        let (), batch_ns = timed (fun () -> Kaskade.Update.batch ops ks) in
        fsyncs := !fsyncs + counter "kaskade.wal_fsyncs" - f0;
        bytes := !bytes + counter "kaskade.wal_bytes" - b0;
        let _, stats_ns = timed (fun () -> Kaskade.stats ks) in
        let outs, refresh_ns = timed (fun () -> Kaskade.Update.refresh_views ks) in
        refreshes := !refreshes + List.length outs;
        incr batches_done;
        add s "session.submit_us" (us submit_ns);
        add s "kaskade.update_batch_us" (us batch_ns);
        add s "gstats.compute_us" (us stats_ns);
        add s "maintain.refresh_us" (us refresh_ns)
      in
      let stream = Workload.stream kind ~seed in
      let t0 = now_s () in
      let reads = ref 0 in
      (* [ingest] interleaves batches at the ratio its served run had;
         every workload then ends with the write probe. *)
      while now_s () -. t0 < seconds || !reads = 0 do
        if kind = Workload.Ingest then
          while float_of_int !batches_done < float_of_int (!reads + 1) *. writes_per_read do
            write ()
          done;
        read (stream.next ());
        incr reads
      done;
      for _ = 1 to probe_batches do
        write ()
      done;
      Proc.teardown srv [ conn ];
      let per_read n = float_of_int n /. float_of_int !reads in
      let per_batch n = float_of_int n /. float_of_int (Stdlib.max 1 !batches_done) in
      let timed_names =
        [ "wire.decode_us"; "qparser.parse_us"; "kaskade.route_us"; "kaskade.query_auto_us";
          "kaskade.query_base_us"; "session.run_us"; "wire.render_us"; "server.unaccounted_us";
          "session.submit_us"; "kaskade.update_batch_us"; "maintain.refresh_us"; "gstats.compute_us";
          "pool.empty_fanout_us"; "provenance_gen.generate_s"; "selection.select_s";
          "materialize.views_s" ]
      in
      {
        timings = List.map (fun n -> (n, values s n)) timed_names;
        view_route_frac = per_read !routed;
        plan_cache_hit_frac = float_of_int !hits /. float_of_int (Stdlib.max 1 !lookups);
        expand_steps_base = per_read !steps_base;
        expand_steps_view = per_read !steps_view;
        expand_steps_session = per_read !steps_sess;
        rows = per_read !rows;
        fsyncs_per_batch = per_batch !fsyncs;
        bytes_per_batch = per_batch !bytes;
        refreshes_per_batch = per_batch !refreshes;
        reads = !reads;
        batches = !batches_done;
        failed = !failed;
      })

(* Workload-validity guards: a workload that stopped exercising its
   layer fails the run instead of reporting a meaningless number. *)
let guard kind r =
  match kind with
  | Workload.Lineage ->
    if r.view_route_frac <= 0.0 then Some "lineage: no read could be answered from a view"
    else if r.expand_steps_view >= r.expand_steps_base then
      Some "lineage: view routing did not cut executor expand steps"
    else None
  | Lookup ->
    if r.view_route_frac <> 0.0 then Some "lookup: a view answered a point lookup" else None
  | Ingest ->
    if r.refreshes_per_batch <= 0.0 then Some "ingest: batches triggered no view refresh" else None
