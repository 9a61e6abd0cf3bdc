(* One function per reproduced table/figure. Each prints the paper-
   shaped rows; EXPERIMENTS.md records the expected shapes. *)

open Kaskade_graph
open Kaskade_util
open Kaskade_views

(* Monotonic: bench durations and medians must not wobble with NTP
   steps. Wall time is only for human-facing timestamps (none here). *)
let now () = Mclock.now_s ()

let time_once f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

(* Median of [reps] timed runs (first run warms caches and is
   included; medians are robust to it). Queries that already take
   seconds are measured once — their variance is relatively small and
   the suite must stay minutes-long. *)
let time_median ?(reps = 3) f =
  let first = snd (time_once f) in
  if first > 2.0 then first
  else begin
    let times = first :: List.init (reps - 1) (fun _ -> snd (time_once f)) in
    let sorted = List.sort compare times in
    List.nth sorted (List.length sorted / 2)
  end

let header title =
  Printf.printf "\n=== %s ===\n%!" title

(* Benchmarks want the raising behaviour of the old facade API: any
   typed error here is a harness bug, not a condition to measure. *)
let qok = function Ok v -> v | Error e -> failwith (Kaskade.Error.to_string e)
let run_auto ks q = qok (Kaskade.query ks q)
let run_base ks q = fst (qok (Kaskade.query ~target:Kaskade.Base ks q))

(* ------------------------------------------------------------------ *)
(* Table III: datasets                                                 *)

let table3 () =
  header "Table III: networks used for evaluation";
  let rows =
    List.concat_map
      (fun (d : Datasets.dataset) ->
        let g = Lazy.force d.Datasets.graph in
        let base =
          [ d.Datasets.name; d.Datasets.kind; Table.fmt_int (Graph.n_vertices g);
            Table.fmt_int (Graph.n_edges g) ]
        in
        if d.Datasets.heterogeneous then begin
          let f = Datasets.filter_graph d in
          [ base;
            [ d.Datasets.name ^ " (summarized)"; d.Datasets.kind; Table.fmt_int (Graph.n_vertices f);
              Table.fmt_int (Graph.n_edges f) ] ]
        end
        else [ base ])
      Datasets.all
  in
  Table.print ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
    ~header:[ "Short Name"; "Type"; "|V|"; "|E|" ] rows

(* ------------------------------------------------------------------ *)
(* Table IV: query workload                                            *)

let table4 () =
  header "Table IV: query workload (parsed and classified)";
  let d = Datasets.prov_raw in
  let rows =
    List.map
      (fun (q : Queries.bench_query) ->
        (* Parse both variants to prove they are well-formed. *)
        let ok text =
          match text with
          | None -> "n/a"
          | Some src -> begin
            match Kaskade.parse src with _ -> "yes" | exception _ -> "PARSE ERROR"
          end
        in
        [ q.Queries.id;
          (match q.Queries.raw with
          | Some _ ->
            (match q.Queries.id with
            | "Q1" -> "Job Blast Radius"
            | "Q2" -> "Ancestors"
            | "Q3" -> "Descendants"
            | "Q4" -> "Path lengths"
            | "Q5" -> "Edge Count"
            | "Q6" -> "Vertex Count"
            | "Q7" -> "Community Detection"
            | _ -> "Largest Community")
          | None -> "-");
          q.Queries.operation; q.Queries.result_kind; ok q.Queries.raw; ok q.Queries.over_connector ])
      (Queries.workload d)
  in
  Table.print ~header:[ "Query"; "Name"; "Operation"; "Result"; "parses"; "rewrite parses" ] rows

(* ------------------------------------------------------------------ *)
(* Fig. 5: view size estimation                                        *)

let fig5 () =
  header "Fig. 5: 2-hop connector size — estimated vs actual (edge-prefix sweep)";
  List.iter
    (fun (d : Datasets.dataset) ->
      let g = Lazy.force d.Datasets.graph in
      let m = Graph.n_edges g in
      let prefixes = List.filter (fun n -> n <= m) [ 10_000; 30_000; 100_000; 300_000 ] in
      let prefixes = if prefixes = [] then [ m ] else prefixes @ [ m ] in
      let rows =
        List.map
          (fun n ->
            let sub, _ = Subgraph.edge_prefix g n in
            let stats = Gstats.compute sub in
            let actual = Kaskade_algo.Paths.count_k_walks sub ~k:2 in
            let est50 = Kaskade.Estimator.estimate_paths stats ~k:2 ~alpha:50.0 in
            let est95 = Kaskade.Estimator.estimate_paths stats ~k:2 ~alpha:95.0 in
            let er =
              Kaskade.Estimator.erdos_renyi ~n:(Graph.n_vertices sub) ~m:(Graph.n_edges sub) ~k:2
            in
            [ Table.fmt_int (Graph.n_edges sub); Table.fmt_sci est50; Table.fmt_sci est95;
              Table.fmt_sci actual; Table.fmt_sci er ])
          prefixes
      in
      Printf.printf "\n-- %s --\n" d.Datasets.name;
      Table.print
        ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
        ~header:[ "graph edges"; "est alpha=50"; "est alpha=95"; "actual 2-hop"; "Erdos-Renyi (Eq.1)" ]
        rows)
    Datasets.all

(* Ablation: estimator accuracy degrades with k, as the paper notes
   ("similar to cardinality estimation for joins, the larger the k,
   the less accurate our estimator"). *)
let fig5k () =
  header "Fig. 5 ablation: estimator accuracy vs k (prov)";
  let g = Datasets.filter_graph Datasets.prov_raw in
  let stats = Gstats.compute g in
  let rows =
    List.map
      (fun k ->
        let actual = Kaskade_algo.Paths.count_k_walks g ~k in
        let est95 = Kaskade.Estimator.estimate_paths stats ~k ~alpha:95.0 in
        let est50 = Kaskade.Estimator.estimate_paths stats ~k ~alpha:50.0 in
        let ratio = if actual > 0.0 then est95 /. actual else 0.0 in
        [ string_of_int k; Table.fmt_sci est50; Table.fmt_sci est95; Table.fmt_sci actual;
          Printf.sprintf "%.2f" ratio ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Table.print
    ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "k"; "est alpha=50"; "est alpha=95"; "actual k-walks"; "est95/actual" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 6: size reduction                                              *)

let fig6 () =
  header "Fig. 6: effective graph size — raw vs summarizer vs 2-hop connector";
  let rows =
    List.concat_map
      (fun (d : Datasets.dataset) ->
        let g = Lazy.force d.Datasets.graph in
        let f = Datasets.filter_graph d in
        let c = Datasets.connector_graph d in
        let row stage g' =
          [ d.Datasets.name; stage; Table.fmt_int (Graph.n_vertices g'); Table.fmt_int (Graph.n_edges g') ]
        in
        [ row "raw" g; row "filter" f; row "connector" c ])
      Datasets.heterogeneous
  in
  Table.print ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
    ~header:[ "dataset"; "stage"; "vertices"; "edges" ] rows

(* ------------------------------------------------------------------ *)
(* Fig. 7: query runtimes                                              *)

let run_query ctx src =
  match Kaskade_exec.Executor.run_string ctx src with
  | Kaskade_exec.Executor.Table t -> Kaskade_exec.Row.n_rows t
  | Kaskade_exec.Executor.Affected n -> n

let fig7_dataset (d : Datasets.dataset) =
  let base = Datasets.filter_graph d in
  let conn = Datasets.connector_graph d in
  let base_ctx = Kaskade_exec.Executor.create base in
  let conn_ctx = Kaskade_exec.Executor.create conn in
  let base_label = if d.Datasets.heterogeneous then "filter" else "raw" in
  let profiles = ref [] in
  let rows =
    List.filter_map
      (fun (q : Queries.bench_query) ->
        match (q.Queries.raw, q.Queries.over_connector) with
        | Some raw_src, Some conn_src ->
          Printf.printf "  %s...%!" q.Queries.id;
          let rows_raw = ref 0 and rows_conn = ref 0 in
          let t_raw = time_median (fun () -> rows_raw := run_query base_ctx raw_src) in
          let t_conn = time_median (fun () -> rows_conn := run_query conn_ctx conn_src) in
          (* One additional profiled run per side records where the
             time goes, operator by operator. *)
          let _, plan_raw =
            Kaskade_exec.Executor.run_explained ~profile:true base_ctx (Kaskade.parse raw_src)
          in
          let _, plan_conn =
            Kaskade_exec.Executor.run_explained ~profile:true conn_ctx (Kaskade.parse conn_src)
          in
          profiles := (q.Queries.id, plan_raw, plan_conn) :: !profiles;
          let speedup = if t_conn > 0.0 then t_raw /. t_conn else 0.0 in
          Printf.printf " %.2fs / %.2fs\n%!" t_raw t_conn;
          Some
            [ q.Queries.id; Printf.sprintf "%.4f" t_raw; Printf.sprintf "%.4f" t_conn;
              Printf.sprintf "%.1fx" speedup; Table.fmt_int !rows_raw; Table.fmt_int !rows_conn ]
        | _ -> None)
      (Queries.workload d)
  in
  Printf.printf "\n-- %s (%s vs connector) --\n" d.Datasets.name base_label;
  Table.print
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "query"; base_label ^ " (s)"; "connector (s)"; "speedup"; "rows(base)"; "rows(conn)" ]
    rows;
  List.iter
    (fun (id, plan_raw, plan_conn) ->
      Printf.printf "\n%s on %s:\n%s" id base_label (Kaskade_obs.Explain.render plan_raw);
      Printf.printf "%s on connector:\n%s" id (Kaskade_obs.Explain.render plan_conn))
    (List.rev !profiles)

let fig7 () =
  header "Fig. 7: total query runtimes, filter/raw vs 2-hop connector";
  List.iter fig7_dataset Datasets.all

(* ------------------------------------------------------------------ *)
(* Fig. 8: degree distributions                                        *)

let fig8 () =
  header "Fig. 8: out-degree distribution CCDF and power-law fit";
  let rows =
    List.map
      (fun (d : Datasets.dataset) ->
        let g = Lazy.force d.Datasets.graph in
        let r = Kaskade_algo.Degree_dist.of_graph g in
        let points =
          (* A few CCDF sample points (deg, count-above). *)
          let all = r.Kaskade_algo.Degree_dist.ccdf in
          let total = List.length all in
          List.filteri (fun i _ -> i = 0 || i = total / 2 || i = total - 1) all
          |> List.map (fun (deg, cnt) -> Printf.sprintf "(%d, %d)" deg cnt)
          |> String.concat " "
        in
        [ d.Datasets.name; Table.fmt_int r.Kaskade_algo.Degree_dist.n;
          string_of_int r.Kaskade_algo.Degree_dist.max_degree;
          Printf.sprintf "%.2f" r.Kaskade_algo.Degree_dist.alpha;
          Printf.sprintf "%.3f" r.Kaskade_algo.Degree_dist.r2; points ])
      Datasets.all
  in
  Table.print ~header:[ "dataset"; "n"; "max deg"; "ccdf slope"; "r2 (power-law fit)"; "ccdf samples" ] rows

(* ------------------------------------------------------------------ *)
(* Tables I & II: view catalog                                         *)

let catalog () =
  header "Tables I & II: connector and summarizer catalog (materialized on a small prov instance)";
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 400; files = 800; seed = 1 }) in
  let views =
    [ View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 });
      View.Connector (View.K_hop { src_type = "File"; dst_type = "File"; k = 2 });
      View.Connector (View.Same_vertex_type { vtype = "Job" });
      View.Connector (View.Same_edge_type { etype = "WRITES_TO" });
      View.Connector View.Source_to_sink;
      View.Summarizer (View.Vertex_inclusion [ "Job"; "File" ]);
      View.Summarizer (View.Vertex_removal [ "Task"; "Machine" ]);
      View.Summarizer (View.Edge_inclusion [ "WRITES_TO"; "IS_READ_BY" ]);
      View.Summarizer (View.Edge_removal [ "SUBMITTED" ]);
      View.Summarizer
        (View.Vertex_aggregator
           { vtype = "Job"; group_prop = "pipelineName"; agg_prop = "CPU"; agg = View.Agg_sum });
      View.Summarizer (View.Subgraph_aggregator { agg_prop = "CPU"; agg = View.Agg_sum });
      View.Summarizer (View.Ego_aggregator { k = 2; agg_prop = "CPU"; agg = View.Agg_sum }) ]
  in
  let rows =
    List.map
      (fun v ->
        let m, dt = time_once (fun () -> Materialize.materialize g v) in
        [ View.name v; View.describe v; Table.fmt_int (Graph.n_vertices m.Materialize.graph);
          Table.fmt_int (Graph.n_edges m.Materialize.graph); Printf.sprintf "%.3f" dt ])
      views
  in
  Table.print ~header:[ "view"; "description"; "|V|"; "|E|"; "build (s)" ] rows

(* ------------------------------------------------------------------ *)
(* Enumeration ablation (§IV)                                          *)

let enum () =
  header "Enumeration ablation: constraint injection vs schema-only search (paper §IV)";
  let schema = Kaskade_gen.Provenance_gen.schema in
  let q1 = Kaskade.parse (Option.get (Queries.q1 Datasets.prov_raw).Queries.raw) in
  let constrained, t_c = time_once (fun () -> Kaskade.Enumerate.enumerate schema q1) in
  Printf.printf "constraint-based (Listing 1 over the 5-type prov schema):\n";
  Printf.printf "  candidates=%d inference_steps=%d time=%.4fs\n"
    (List.length constrained.Kaskade.Enumerate.candidates)
    constrained.Kaskade.Enumerate.inference_steps t_c;
  List.iter
    (fun (c : Kaskade.Enumerate.candidate) ->
      Printf.printf "    %-24s %s\n" (View.name c.Kaskade.Enumerate.view)
        (View.describe c.Kaskade.Enumerate.view))
    constrained.Kaskade.Enumerate.candidates;
  Printf.printf "\nschema-only (no query constraints), growing max K:\n";
  let rows =
    List.map
      (fun max_k ->
        let e, t = time_once (fun () -> Kaskade.Enumerate.enumerate_unconstrained schema ~max_k) in
        [ string_of_int max_k; string_of_int (List.length e.Kaskade.Enumerate.candidates);
          Table.fmt_int e.Kaskade.Enumerate.inference_steps; Printf.sprintf "%.4f" t ])
      [ 2; 4; 6; 8; 10; 12 ]
  in
  Table.print ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "max K"; "candidates"; "inference steps"; "time (s)" ] rows

(* ------------------------------------------------------------------ *)
(* View selection budget sweep (§V-B)                                  *)

let select () =
  header "View selection: knapsack budget sweep over the Q1-Q4 workload (paper §V-B)";
  let d = Datasets.prov_raw in
  let g = Datasets.filter_graph d in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let queries =
    List.filter_map
      (fun (q : Queries.bench_query) -> Option.map Kaskade.parse q.Queries.raw)
      [ Queries.q1 d; Queries.q2 d; Queries.q3 d; Queries.q4 d ]
  in
  let m = Graph.n_edges g in
  let budgets = [ m / 100; m / 10; m; 10 * m; 100 * m ] in
  let rows =
    List.concat_map
      (fun budget ->
        List.map
          (fun solver ->
            let name =
              match solver with
              | Kaskade.Selection.Branch_and_bound -> "branch&bound"
              | Kaskade.Selection.Dp -> "dp"
              | Kaskade.Selection.Greedy -> "greedy"
            in
            let sel = Kaskade.Selection.select ~solver stats schema ~queries ~budget_edges:budget in
            [ Table.fmt_int budget; name;
              String.concat " " (List.map View.name sel.Kaskade.Selection.chosen);
              Table.fmt_int sel.Kaskade.Selection.total_weight;
              Printf.sprintf "%.4f" sel.Kaskade.Selection.total_value ])
          (if budget = m then
             [ Kaskade.Selection.Branch_and_bound; Kaskade.Selection.Greedy ]
           else [ Kaskade.Selection.Branch_and_bound ]))
      budgets
  in
  Table.print ~header:[ "budget (edges)"; "solver"; "chosen views"; "used"; "value" ] rows

(* ------------------------------------------------------------------ *)
(* End-to-end: the whole Kaskade loop on the blast-radius workload     *)

let e2e () =
  header "End-to-end: enumerate -> select -> materialize -> rewrite -> run (Q1/Q2 on prov)";
  let d = Datasets.prov_raw in
  let g = Datasets.filter_graph d in
  let ks = Kaskade.make g in
  let queries =
    List.filter_map
      (fun (q : Queries.bench_query) -> Option.map Kaskade.parse q.Queries.raw)
      [ Queries.q1 d; Queries.q2 d ]
  in
  let budget = 10 * Graph.n_edges g in
  let sel, t_select =
    time_once (fun () -> Kaskade.select_views ks ~queries ~budget_edges:budget)
  in
  Printf.printf "selection (%d candidates considered, %.3fs): %s\n"
    (List.length sel.Kaskade.Selection.reports) t_select
    (String.concat ", " (List.map View.name sel.Kaskade.Selection.chosen));
  let entries, t_mat = time_once (fun () -> Kaskade.materialize_selected ks sel) in
  List.iter
    (fun (e : Catalog.entry) ->
      Printf.printf "materialized %s: %d edges\n"
        (View.name e.Catalog.materialized.Materialize.view)
        e.Catalog.size_edges)
    entries;
  Printf.printf "materialization: %.3fs\n" t_mat;
  let plans = ref [] in
  let wall_times = ref [] in
  let rows = List.map
      (fun q ->
        let t_raw = time_median (fun () -> ignore (run_base ks q)) in
        let how = ref "raw" in
        let t_view =
          time_median (fun () ->
              let _, target = run_auto ks q in
              how := (match target with Kaskade.Raw -> "raw" | Kaskade.Via_view v -> v))
        in
        (* One profiled run records per-operator actual rows/timings. *)
        let _, report = Kaskade.profile ks q in
        plans := (!how, report.Kaskade.plan) :: !plans;
        let qtext = Kaskade_query.Pretty.to_string q in
        wall_times := (qtext, t_raw, t_view, !how) :: !wall_times;
        [ String.sub qtext 0 (Stdlib.min 48 (String.length qtext)) ^ "...";
          Printf.sprintf "%.4f" t_raw; Printf.sprintf "%.4f" t_view; !how;
          Printf.sprintf "%.1fx" (if t_view > 0.0 then t_raw /. t_view else 0.0) ])
      queries
  in
  (* Plan cache: a second facade over the same graph and selection
     plans every run from scratch; the warm instance (its cache primed
     by the timed runs above) answers repeats straight from the cache.
     Execution is identical either way, so the gap is pure planning —
     repair scan, per-view rewriting, cost comparison. *)
  let ks_cold = Kaskade.make ~config:{ Kaskade.Config.default with plan_cache = false } g in
  ignore (Kaskade.materialize_selected ks_cold sel);
  let q_pc = List.hd queries in
  ignore (run_auto ks q_pc);
  let t_pc_cold = time_median ~reps:11 (fun () -> ignore (run_auto ks_cold q_pc)) in
  let t_pc_warm = time_median ~reps:11 (fun () -> ignore (run_auto ks q_pc)) in
  let pc_speedup = if t_pc_warm > 0.0 then t_pc_cold /. t_pc_warm else 0.0 in
  Printf.printf "plan cache: cold %.5fs -> warm %.5fs per run (%.2fx)\n" t_pc_cold t_pc_warm
    pc_speedup;
  Table.print ~header:[ "query"; "raw (s)"; "kaskade (s)"; "answered via"; "speedup" ] rows;
  List.iter
    (fun (how, plan) ->
      Printf.printf "\nprofiled plan (via %s):\n%s" how (Kaskade_obs.Explain.render plan))
    (List.rev !plans);
  (* Process-wide metrics accumulated across the whole experiment —
     view hits/misses, expand steps, materialization sizes — plus the
     per-query wall times, so regressions are diffable run to run. *)
  let json =
    Kaskade_obs.Report.(
      to_string ~pretty:true
        (Obj
           [ ("metrics", Kaskade_obs.Metrics.to_json ());
             ( "plan_cache",
               Obj
                 [ ("cold_s", Float t_pc_cold); ("warm_s", Float t_pc_warm);
                   ("speedup", Float pc_speedup) ] );
             ( "query_wall_times",
               List
                 (List.rev_map
                    (fun (q, t_raw, t_view, how) ->
                      Obj
                        [ ("query", Str q); ("raw_s", Float t_raw); ("kaskade_s", Float t_view);
                          ("via", Str how) ])
                    !wall_times) ) ]))
  in
  let oc = open_out "bench_metrics.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nmetrics (also written to bench_metrics.json):\n%s\n" json

(* ------------------------------------------------------------------ *)
(* Microbench: segmented CSR, scratch BFS, parallel materialization    *)

(* [--smoke]: tiny sizes, few reps, and hard assertions instead of
   timings — run from CI to prove the segmented fast paths return the
   same rows as the seed's filter-scan semantics. *)
let smoke = ref false

(* The smoke graph is seeded, so its row counts are fixtures: a
   mismatch means the segmented CSR layout changed results. *)
let smoke_expected_typed_rows = 739

let microbench () =
  header "Microbench: type-segmented CSR + scratch BFS + parallel view materialization";
  let cfg =
    Kaskade_gen.Provenance_gen.(
      if !smoke then { default with jobs = 300; files = 600; seed = 42 }
      else { default with jobs = 4_000; files = 8_000; tasks_per_job = 6; machines = 100; users = 400; seed = 42 })
  in
  let g = Kaskade_gen.Provenance_gen.generate cfg in
  let schema = Graph.schema g in
  let n = Graph.n_vertices g in
  let reps = if !smoke then 3 else 9 in
  (* 1. Typed expansion: segmented slice walk vs the seed's filter-scan
     (iterate the whole out-list, test each edge's type) — the code
     path every typed MATCH step used before segmentation. The sweep
     runs over Job vertices, exactly the row set a
     [(j:Job)-[:WRITES_TO]->] step expands; Job adjacency mixes
     HAS_TASK and WRITES_TO runs, so the filter-scan pays for every
     skipped edge. *)
  let etid = Schema.edge_type_id schema "WRITES_TO" in
  let jobs = Graph.vertices_of_type_name g "Job" in
  let inner = if !smoke then 1 else 20 in
  let rows_seg = ref 0 and rows_scan = ref 0 in
  let t_seg =
    time_median ~reps (fun () ->
        rows_seg := 0;
        for _ = 1 to inner do
          Array.iter
            (fun v -> Graph.iter_out_etype g v ~etype:etid (fun ~dst:_ ~eid:_ -> incr rows_seg))
            jobs
        done)
  in
  let t_scan =
    time_median ~reps (fun () ->
        rows_scan := 0;
        for _ = 1 to inner do
          Array.iter
            (fun v ->
              Graph.iter_out g v (fun ~dst:_ ~etype ~eid:_ -> if etype = etid then incr rows_scan))
            jobs
        done)
  in
  if !rows_seg <> !rows_scan then begin
    Printf.eprintf "FAIL: typed expand rows differ: segmented=%d filter-scan=%d\n" !rows_seg !rows_scan;
    exit 1
  end;
  (* 1b. Same comparison in the in-direction, where the type runs are
     most selective: a Job's in-list mixes ~6 IS_READ_BY edges with
     one SUBMITTED edge, so the reverse step [(u:User)-[:SUBMITTED]->(j)]
     anchored at [j] skips almost the whole list. *)
  let sub_etid = Schema.edge_type_id schema "SUBMITTED" in
  let rows_in_seg = ref 0 and rows_in_scan = ref 0 in
  let t_in_seg =
    time_median ~reps (fun () ->
        rows_in_seg := 0;
        for _ = 1 to inner do
          Array.iter
            (fun v ->
              Graph.iter_in_etype g v ~etype:sub_etid (fun ~src:_ ~eid:_ -> incr rows_in_seg))
            jobs
        done)
  in
  let t_in_scan =
    time_median ~reps (fun () ->
        rows_in_scan := 0;
        for _ = 1 to inner do
          Array.iter
            (fun v ->
              Graph.iter_in g v (fun ~src:_ ~etype ~eid:_ ->
                  if etype = sub_etid then incr rows_in_scan))
            jobs
        done)
  in
  if !rows_in_seg <> !rows_in_scan then begin
    Printf.eprintf "FAIL: typed in-expand rows differ: segmented=%d filter-scan=%d\n" !rows_in_seg
      !rows_in_scan;
    exit 1
  end;
  if !smoke && !rows_seg <> smoke_expected_typed_rows then begin
    Printf.eprintf "FAIL: typed expand fixture mismatch: got %d, expected %d\n" !rows_seg
      smoke_expected_typed_rows;
    exit 1
  end;
  (* 2. Two-hop BFS, the executor's var-length expansion shape: the
     PR's epoch-stamped scratch set + pooled frontier vectors vs the
     seed's Hashtbl visited set + list frontiers. Sources sample every
     vertex type. *)
  let sources = List.init (Stdlib.min 64 n) (fun i -> i * (Stdlib.max 1 (n / 64))) in
  let reach_scratch = ref 0 and reach_ht = ref 0 in
  let t_bfs_scratch =
    time_median ~reps (fun () ->
        reach_scratch := 0;
        for _ = 1 to inner do
          List.iter
            (fun src ->
              Scratch.with_set ~n @@ fun visited ->
              Scratch.with_vec @@ fun vec_a ->
              Scratch.with_vec @@ fun vec_b ->
              Scratch.add visited src;
              Int_vec.push vec_a src;
              let cur = ref vec_a and next = ref vec_b in
              for _hop = 1 to 2 do
                Int_vec.clear !next;
                let nv = !next in
                Int_vec.iter
                  (fun v ->
                    Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ ->
                        if not (Scratch.mem visited dst) then begin
                          Scratch.add visited dst;
                          incr reach_scratch;
                          Int_vec.push nv dst
                        end))
                  !cur;
                let tmp = !cur in
                cur := !next;
                next := tmp
              done)
            sources
        done)
  in
  let t_bfs_ht =
    time_median ~reps (fun () ->
        reach_ht := 0;
        for _ = 1 to inner do
          List.iter
            (fun src ->
              let visited = Hashtbl.create 16 in
              Hashtbl.replace visited src ();
              let frontier = ref [ src ] in
              for _hop = 1 to 2 do
                let next = ref [] in
                List.iter
                  (fun v ->
                    Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ ->
                        if not (Hashtbl.mem visited dst) then begin
                          Hashtbl.replace visited dst ();
                          incr reach_ht;
                          next := dst :: !next
                        end))
                  !frontier;
                frontier := List.rev !next
              done)
            sources
        done)
  in
  if !reach_scratch <> !reach_ht then begin
    Printf.eprintf "FAIL: 2-hop BFS reach differs: scratch=%d hashtbl=%d\n" !reach_scratch !reach_ht;
    exit 1
  end;
  (* 3. Connector materialization across pool widths: timings plus the
     determinism contract — the frozen view serializes byte-identically
     at every width. *)
  let widths = [ 1; 2; 4 ] in
  let mat_times =
    List.map
      (fun w ->
        let pool = Pool.create ~domains:w () in
        let m = ref None in
        let t =
          time_median ~reps:(if !smoke then 2 else 3) (fun () ->
              m := Some (Materialize.k_hop_connector ~pool g ~src_type:"Job" ~dst_type:"Job" ~k:2))
        in
        let m = Option.get !m in
        (w, t, Gio.to_string m.Materialize.graph, Graph.n_edges m.Materialize.graph))
      widths
  in
  let _, _, bytes1, edges1 = List.hd mat_times in
  List.iter
    (fun (w, _, bytes, _) ->
      if bytes <> bytes1 then begin
        Printf.eprintf "FAIL: materialization at %d domains differs from sequential output\n" w;
        exit 1
      end)
    mat_times;
  if !smoke then begin
    (* Scaling smoke: a wider pool must never be slower. The morsel
       scheduler caps workers at the hardware parallelism, so on a
       single-core CI box the 4-domain pool takes the 1-worker path
       and the assertion reduces to noise tolerance — best-of-3
       timings, retried a few times before declaring a regression. *)
    let best pool =
      let best = ref infinity in
      for _ = 1 to 3 do
        let t =
          snd
            (time_once (fun () ->
                 ignore (Materialize.k_hop_connector ~pool g ~src_type:"Job" ~dst_type:"Job" ~k:2)))
        in
        if t < !best then best := t
      done;
      !best
    in
    let pool1 = Pool.create ~domains:1 () in
    let pool4 = Pool.create ~domains:4 () in
    let rec attempt tries =
      let t1 = best pool1 in
      let t4 = best pool4 in
      let speedup = if t4 > 0.0 then t1 /. t4 else 1.0 in
      if speedup >= 1.0 then
        Printf.printf "scaling smoke: connector @4 domains %.2fx vs @1 (%d effective worker(s))\n"
          speedup (Pool.effective_workers pool4)
      else if tries > 1 then attempt (tries - 1)
      else begin
        Printf.eprintf
          "FAIL: connector slower at 4 domains than 1: %.4fs vs %.4fs (speedup %.2fx < 1.0)\n" t4 t1
          speedup;
        exit 1
      end
    in
    attempt 5
  end;
  Table.print
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "kernel"; "time (s)"; "baseline (s)"; "speedup" ]
    ([ [ "typed expand out (WRITES_TO)"; Printf.sprintf "%.4f" t_seg; Printf.sprintf "%.4f" t_scan;
         Printf.sprintf "%.1fx" (if t_seg > 0.0 then t_scan /. t_seg else 0.0) ];
       [ "typed expand in (SUBMITTED)"; Printf.sprintf "%.4f" t_in_seg; Printf.sprintf "%.4f" t_in_scan;
         Printf.sprintf "%.1fx" (if t_in_seg > 0.0 then t_in_scan /. t_in_seg else 0.0) ];
       [ "2-hop BFS (64 sources)"; Printf.sprintf "%.4f" t_bfs_scratch; Printf.sprintf "%.4f" t_bfs_ht;
         Printf.sprintf "%.1fx" (if t_bfs_scratch > 0.0 then t_bfs_ht /. t_bfs_scratch else 0.0) ] ]
    @ List.map
        (fun (w, t, _, edges) ->
          let _, t1, _, _ = List.hd mat_times in
          [ Printf.sprintf "connector k=2 @%dd (%s edges)" w (Table.fmt_int edges);
            Printf.sprintf "%.4f" t; Printf.sprintf "%.4f" t1;
            Printf.sprintf "%.1fx" (if t > 0.0 then t1 /. t else 0.0) ])
        mat_times);
  Printf.printf "typed-expand rows=%d  bfs reach=%d  connector edges=%d  output identical across widths: yes\n"
    !rows_seg !reach_scratch edges1;
  if not !smoke then begin
    let open Kaskade_obs.Report in
    let json =
      Obj
        [ ("graph", Obj [ ("n", Int n); ("m", Int (Graph.n_edges g)) ]);
          ( "typed_expand_out",
            Obj
              [ ("segmented_s", Float t_seg); ("filter_scan_s", Float t_scan);
                ("rows", Int !rows_seg);
                ("speedup", Float (if t_seg > 0.0 then t_scan /. t_seg else 0.0)) ] );
          ( "typed_expand_in",
            Obj
              [ ("segmented_s", Float t_in_seg); ("filter_scan_s", Float t_in_scan);
                ("rows", Int !rows_in_seg);
                ("speedup", Float (if t_in_seg > 0.0 then t_in_scan /. t_in_seg else 0.0)) ] );
          ( "bfs_2hop",
            Obj
              [ ("scratch_s", Float t_bfs_scratch); ("hashtbl_s", Float t_bfs_ht);
                ("reach", Int !reach_scratch);
                ("speedup", Float (if t_bfs_scratch > 0.0 then t_bfs_ht /. t_bfs_scratch else 0.0)) ] );
          ( "connector_materialize",
            List
              (List.map
                 (fun (w, t, _, edges) ->
                   Obj [ ("domains", Int w); ("time_s", Float t); ("edges", Int edges) ])
                 mat_times) ) ]
    in
    let oc = open_out "bench_speed.json" in
    output_string oc (to_string ~pretty:true json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "baseline written to bench_speed.json\n"
  end

(* ------------------------------------------------------------------ *)
(* Maintenance: incremental refresh vs full rebuild                    *)

(* The live-update extension's headline claim: absorbing a small batch
   of edge updates into a materialized view via [Maintain.refresh] is
   far cheaper than re-materializing. Every measured refresh is also
   checked against the rebuild — result-identical for connectors (the
   incremental path may order appended vertices differently),
   byte-identical for summarizers — so the sweep doubles as a
   correctness harness; any mismatch exits non-zero, in --smoke and
   full runs alike. *)

let canonical_view (m : Materialize.materialized) =
  let vg = m.Materialize.graph in
  let o_of_n = Array.make (Graph.n_vertices vg) (-1) in
  Array.iteri (fun old_v nv -> if nv >= 0 then o_of_n.(nv) <- old_v) m.Materialize.new_of_old;
  let edges = ref [] in
  Graph.iter_edges vg (fun ~eid:_ ~src ~dst ~etype ->
      edges := (o_of_n.(src), o_of_n.(dst), etype) :: !edges);
  ( List.sort compare
      (Array.to_list (Array.mapi (fun old_v nv -> (old_v, nv >= 0)) m.Materialize.new_of_old)),
    List.sort compare !edges )

let maintenance () =
  header "Maintenance: incremental view refresh vs full rebuild across update batch sizes";
  (* Each view kind runs on the dataset where its maintenance problem
     is representative: connectors on the heterogeneous provenance
     graph (the paper's motivating workload), ego aggregates on the
     sparse road network, where a k-hop neighbourhood is a local
     object (on dense graphs the affected region approaches the whole
     graph and incrementality degenerates by construction). *)
  let prov =
    let raw =
      Kaskade_gen.Provenance_gen.(
        generate
          (if !smoke then { default with jobs = 400; files = 800; seed = 5 }
           else { default with jobs = 40_000; files = 80_000; seed = 5 }))
    in
    (Materialize.materialize raw
       (View.Summarizer (View.Vertex_inclusion Kaskade_gen.Provenance_gen.summarized_types)))
      .Materialize.graph
  in
  let road =
    Kaskade_gen.Road_gen.(generate (scaled ~edges:(if !smoke then 2_000 else 150_000) ~seed:5))
  in
  let scenarios =
    [ ( "connector k=2 (prov)",
        prov,
        View.Connector (View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 }),
        `Canonical );
      ( "ego count(name) k=2 (road)",
        road,
        View.Summarizer (View.Ego_aggregator { k = 2; agg_prop = "name"; agg = View.Agg_count }),
        `Bytes ) ]
  in
  List.iter
    (fun (label, g, _, _) ->
      Printf.printf "%s base: %d vertices, %d edges\n%!" label (Graph.n_vertices g)
        (Graph.n_edges g))
    scenarios;
  let batches = if !smoke then [ 1; 16; 64 ] else [ 1; 4; 16; 64; 256 ] in
  (* Refreshes are ms-scale; rebuilds are 100x that. Every rep (on
     both sides alike) allocates a whole view graph, so the heap is
     collected between reps — outside the timed window — to keep one
     rep's garbage from billing major-GC slices to the next; the cheap
     side gets more reps for a stable median. *)
  let reps = if !smoke then 2 else 3 in
  let reps_delta = if !smoke then 2 else 7 in
  let time_median_gc ~reps f =
    let times = List.init reps (fun _ -> Gc.full_major (); snd (time_once f)) in
    let sorted = List.sort compare times in
    List.nth sorted (List.length sorted / 2)
  in
  let results = ref [] in
  let rows =
    List.concat_map
      (fun (label, g, view, compare_kind) ->
        let m = Materialize.materialize g view in
        List.map
          (fun batch ->
            let ops0 =
              Kaskade_gen.Mutate.random_ops ~inserts:((batch + 1) / 2) ~deletes:(batch / 2)
                ~seed:(1000 + batch) g
            in
            let o = Graph.Overlay.create g in
            let ops = Graph.Overlay.apply o ops0 in
            let base_after = Graph.Overlay.graph o in
            let refreshed = ref None in
            let t_delta =
              time_median_gc ~reps:reps_delta (fun () ->
                  refreshed := Some (Maintain.refresh base_after ~view:m ~ops))
            in
            let refreshed, strategy = Option.get !refreshed in
            let rebuilt = ref None in
            let t_rebuild =
              time_median_gc ~reps (fun () ->
                  rebuilt := Some (Materialize.materialize base_after view))
            in
            let rebuilt = Option.get !rebuilt in
            let same =
              match compare_kind with
              | `Canonical -> canonical_view refreshed = canonical_view rebuilt
              | `Bytes ->
                Gio.to_string refreshed.Materialize.graph = Gio.to_string rebuilt.Materialize.graph
                && refreshed.Materialize.new_of_old = rebuilt.Materialize.new_of_old
            in
            if not same then begin
              Printf.eprintf "FAIL: %s refresh diverged from rebuild at batch=%d (%s)\n" label
                batch
                (Maintain.describe_strategy strategy);
              exit 1
            end;
            if not (Maintain.incremental strategy) then begin
              Printf.eprintf "FAIL: %s fell back to a rebuild at batch=%d (%s)\n" label batch
                (Maintain.describe_strategy strategy);
              exit 1
            end;
            let speedup = if t_delta > 0.0 then t_rebuild /. t_delta else 0.0 in
            results := (label, batch, List.length ops, t_delta, t_rebuild, speedup) :: !results;
            [ label; string_of_int batch; Maintain.describe_strategy strategy;
              Printf.sprintf "%.5f" t_delta; Printf.sprintf "%.5f" t_rebuild;
              Printf.sprintf "%.1fx" speedup ])
          batches)
      scenarios
  in
  Table.print
    ~aligns:[ Table.Left; Table.Right; Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "view"; "batch"; "strategy"; "delta (s)"; "rebuild (s)"; "speedup" ]
    rows;
  print_endline "every refresh checked against its rebuild: identical";
  if not !smoke then begin
    List.iter
      (fun (label, batch, _, _, _, speedup) ->
        if batch <= 64 && speedup < 10.0 then
          Printf.printf "WARN: %s at batch=%d only %.1fx faster than rebuild (target >= 10x)\n"
            label batch speedup)
      (List.rev !results);
    let open Kaskade_obs.Report in
    let json =
      Obj
        [ ( "maintenance",
            List
              (List.rev_map
                 (fun (label, batch, effective, t_delta, t_rebuild, speedup) ->
                   Obj
                     [ ("view", Str label); ("batch", Int batch); ("effective_ops", Int effective);
                       ("delta_s", Float t_delta); ("rebuild_s", Float t_rebuild);
                       ("speedup", Float speedup) ])
                 !results) ) ]
    in
    let oc = open_out "bench_metrics.json" in
    output_string oc (to_string ~pretty:true json);
    output_char oc '\n';
    close_out oc;
    print_endline "sweep written to bench_metrics.json"
  end

(* ------------------------------------------------------------------ *)
(* Regress: fresh run vs committed baseline                            *)

(* A fixed (scale-independent, seeded) workload run end-to-end through
   the facade, compared against the committed [bench_baseline.json].
   The deterministic fields — which view answered each query and how
   many rows came back — must match {e exactly}: they only change when
   planning/execution behavior changes. Timings are machine-specific,
   so only the raw-vs-view speedup {e ratio} is checked, with a
   generous tolerance band (3x), making the check meaningful on slow
   CI machines without going flaky. Full mode re-times and rewrites
   the baseline; [--smoke] compares and exits non-zero on regression. *)

let regress_workload =
  [ "MATCH (s:Job)-[r*1..4]->(desc:Job) RETURN s, desc";
    "MATCH (s:Job)<-[r*1..4]-(anc:Job) RETURN s, anc";
    "SELECT s, n, MAX(r) FROM (MATCH (s:Job)-[r*1..4]->(n) RETURN s, n, r) GROUP BY s, n" ]

let regress_result_rows = function
  | Kaskade_exec.Executor.Table t -> Kaskade_exec.Row.n_rows t
  | Kaskade_exec.Executor.Affected n -> n

let regress () =
  header "Regress: view routing, row counts and speedups vs bench_baseline.json";
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 400; files = 800; seed = 9 }) in
  let ks = Kaskade.make g in
  let queries = List.map Kaskade.parse regress_workload in
  let sel = Kaskade.select_views ks ~queries ~budget_edges:(10 * Graph.n_edges g) in
  ignore (Kaskade.materialize_selected ks sel);
  let reps = if !smoke then 3 else 5 in
  let entries =
    List.map2
      (fun src q ->
        let rows_raw = ref 0 and rows_view = ref 0 and via = ref "raw" in
        let t_raw =
          time_median ~reps (fun () -> rows_raw := regress_result_rows (run_base ks q))
        in
        let t_view =
          time_median ~reps (fun () ->
              let r, how = run_auto ks q in
              rows_view := regress_result_rows r;
              via := (match how with Kaskade.Raw -> "raw" | Kaskade.Via_view v -> v))
        in
        let speedup = if t_view > 0.0 then t_raw /. t_view else 0.0 in
        (src, !via, !rows_raw, !rows_view, t_raw, t_view, speedup))
      regress_workload queries
  in
  Table.print
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "query"; "via"; "rows"; "raw (s)"; "kaskade (s)"; "speedup" ]
    (List.map
       (fun (src, via, _, rows, t_raw, t_view, speedup) ->
         [ String.sub src 0 (Stdlib.min 40 (String.length src)) ^ "..."; via;
           Table.fmt_int rows; Printf.sprintf "%.5f" t_raw; Printf.sprintf "%.5f" t_view;
           Printf.sprintf "%.1fx" speedup ])
       entries);
  List.iter
    (fun (src, _, rows_raw, rows_view, _, _, _) ->
      if rows_raw <> rows_view then begin
        Printf.eprintf "FAIL: view-routed rows differ from raw rows for %s (%d vs %d)\n" src
          rows_view rows_raw;
        exit 1
      end)
    entries;
  print_endline (Kaskade_obs.Qlog.summary ());
  let baseline_path = "bench_baseline.json" in
  if not !smoke then begin
    let open Kaskade_obs.Report in
    let json =
      Obj
        [ ( "entries",
            List
              (List.map
                 (fun (src, via, _, rows, t_raw, t_view, speedup) ->
                   Obj
                     [ ("query", Str src); ("via", Str via); ("rows", Int rows);
                       ("raw_s", Float t_raw); ("kaskade_s", Float t_view);
                       ("speedup", Float speedup) ])
                 entries) ) ]
    in
    let oc = open_out baseline_path in
    output_string oc (to_string ~pretty:true json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "baseline written to %s\n" baseline_path
  end
  else begin
    let module R = Kaskade_obs.Report in
    let contents =
      match open_in_bin baseline_path with
      | ic ->
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      | exception Sys_error msg ->
        Printf.eprintf "FAIL: cannot read %s (%s); run `bench regress` without --smoke first\n"
          baseline_path msg;
        exit 1
    in
    let baseline =
      match R.parse contents with
      | Ok j -> j
      | Error e ->
        Printf.eprintf "FAIL: %s does not parse: %s\n" baseline_path e;
        exit 1
    in
    let base_entries =
      match R.member "entries" baseline with
      | Some (R.List l) -> l
      | _ ->
        Printf.eprintf "FAIL: %s has no \"entries\" list\n" baseline_path;
        exit 1
    in
    let str k j = match R.member k j with Some (R.Str s) -> s | _ -> "" in
    let num k j =
      match R.member k j with
      | Some (R.Float f) -> f
      | Some (R.Int i) -> float_of_int i
      | _ -> nan
    in
    let failures = ref 0 in
    let fail fmt = Printf.ksprintf (fun s -> incr failures; Printf.eprintf "FAIL: %s\n" s) fmt in
    List.iter
      (fun (src, via, _, rows, _, _, speedup) ->
        match List.find_opt (fun b -> String.equal (str "query" b) src) base_entries with
        | None -> fail "query missing from baseline: %s" src
        | Some b ->
          if not (String.equal (str "via" b) via) then
            fail "%s: routed via %s, baseline says %s" src via (str "via" b);
          let base_rows = int_of_float (num "rows" b) in
          if base_rows <> rows then fail "%s: %d rows, baseline says %d" src rows base_rows;
          let base_speedup = num "speedup" b in
          if Float.is_nan base_speedup then fail "%s: baseline speedup unreadable" src
          else if speedup < base_speedup /. 3.0 then
            fail "%s: speedup %.2fx fell below tolerance (baseline %.2fx / 3)" src speedup
              base_speedup)
      entries;
    if !failures > 0 then begin
      Printf.eprintf "regress: %d check(s) failed against %s\n" !failures baseline_path;
      exit 1
    end;
    Printf.printf "regress: %d queries match baseline (routing + rows exact, speedup within 3x)\n"
      (List.length entries)
  end

(* ------------------------------------------------------------------ *)
(* Faults: degradation drill under injected failures                   *)

(* Forced refresh failures must open the circuit breaker and degrade
   queries to {e correct} base-graph answers (checked against a
   view-free twin of the same snapshot); a forced deadline or injected
   executor timeout must surface as a typed [Budget_exhausted], never
   a crash. [--smoke] only shrinks the graph — the assertions are
   always hard, so this doubles as the CI robustness gate. *)
let faults () =
  header "Faults: refresh circuit breaker + query deadlines under injected failures";
  let module M = Kaskade_obs.Metrics in
  let module Executor = Kaskade_exec.Executor in
  let module Row = Kaskade_exec.Row in
  let authors = if !smoke then 60 else 300 in
  let g =
    Kaskade_gen.Dblp_gen.(
      generate { default with authors; pubs = 2 * authors; venues = 8; seed = 11 })
  in
  let threshold = 3 in
  (* cooldown longer than the drill: the breaker must stay open *)
  let ks = Kaskade.make
      ~config:
        { Kaskade.Config.default with breaker_threshold = threshold; breaker_cooldown_s = 3600.0 }
      g in
  let q = Kaskade.parse "MATCH (a:Author)-[r*2..2]->(b:Author) RETURN a, b" in
  ignore
    (Kaskade.materialize ks
       (View.Connector (View.K_hop { src_type = "Author"; dst_type = "Author"; k = 2 })));
  (* dirty the view so every query wants a repair first *)
  let gs = Kaskade.graph ks in
  let a = Graph.vertices_of_type_name gs "Author" in
  let p = Graph.vertices_of_type_name gs "Pub" in
  Kaskade.Update.insert_edge ks ~src:a.(0) ~dst:p.(0) ~etype:"AUTHORED" ();
  (* ground truth: a view-free twin over the identical snapshot (all
     comparisons are base-graph vs base-graph, so vertex ids agree) *)
  let twin = Kaskade.make (Kaskade.graph ks) in
  let rows_of = function
    | Executor.Table t -> List.sort compare (List.map Array.to_list t.Row.rows)
    | Executor.Affected n -> [ [ Row.Prim (Value.Int n) ] ]
  in
  let expected = rows_of (fst (run_auto twin q)) in
  let m_failures = M.counter "kaskade.refresh_failures" in
  let m_open = M.counter "kaskade.breaker_open" in
  let m_fallback = M.counter "kaskade.fallback_runs" in
  let m_timeouts = M.counter "kaskade.query_timeouts" in
  let base = List.map M.counter_value [ m_failures; m_open; m_fallback; m_timeouts ] in
  Budget.Faults.(with_faults [ fault "maintain.refresh" Fail ]) (fun () ->
      for i = 1 to threshold + 1 do
        let r, how = run_auto ks q in
        (match how with
        | Kaskade.Raw -> ()
        | Kaskade.Via_view v ->
          Printf.eprintf "FAIL: query %d answered via stale view %s\n" i v;
          exit 1);
        if rows_of r <> expected then begin
          Printf.eprintf "FAIL: degraded query %d diverged from view-free execution\n" i;
          exit 1
        end;
        let breaker =
          match Kaskade.breaker_states ks with
          | [ (_, br) ] -> Breaker.describe br
          | _ -> "closed (pristine)"
        in
        Printf.printf "query %d: answered on base graph, rows correct, breaker %s\n" i breaker
      done);
  (match Kaskade.breaker_states ks with
  | [ (name, br) ] when Breaker.state br = Breaker.Open ->
    Printf.printf "breaker for %s opened after %d consecutive failures -> view quarantined\n"
      name (Breaker.failures br)
  | _ ->
    Printf.eprintf "FAIL: breaker did not open after %d refresh failures\n" threshold;
    exit 1);
  (* deadlines: a typed value, never a crash or an escaped exception *)
  (match Kaskade.query ~budget:(Budget.create ~deadline_s:0.0 ()) ks q with
  | Error (Kaskade.Error.Budget_exhausted _ as e) ->
    Printf.printf "0s deadline -> typed error: %s\n" (Kaskade.Error.to_string e)
  | Ok _ ->
    Printf.eprintf "FAIL: 0s deadline did not exhaust\n";
    exit 1
  | Error e ->
    Printf.eprintf "FAIL: 0s deadline misclassified: %s\n" (Kaskade.Error.to_string e);
    exit 1);
  Budget.Faults.with_spec "executor.run=timeout" (fun () ->
      match Kaskade.query ks q with
      | Error (Kaskade.Error.Budget_exhausted _) ->
        print_endline "injected executor timeout -> typed error"
      | _ ->
        Printf.eprintf "FAIL: injected executor timeout not surfaced as Budget_exhausted\n";
        exit 1);
  let deltas =
    List.map2 (fun c b -> M.counter_value c - b) [ m_failures; m_open; m_fallback; m_timeouts ]
      base
  in
  (match deltas with
  | [ failures; opened; fallback; timeouts ] ->
    Printf.printf
      "metrics: +%d refresh_failures, +%d breaker_open, +%d fallback_runs, +%d query_timeouts\n"
      failures opened fallback timeouts;
    (* threshold failures; one distinct opening; a fallback for the
       opening run, the quarantined one, and the executor-timeout run
       (it plans around the quarantined view before the fault fires);
       two governed timeouts *)
    if deltas <> [ threshold; 1; 3; 2 ] then begin
      Printf.eprintf "FAIL: unexpected metric deltas\n";
      exit 1
    end
  | _ -> assert false);
  print_endline "degradation drill passed: correct answers throughout, no crash"

(* ------------------------------------------------------------------ *)
(* Serving layer: concurrent sessions over the line protocol.          *)
(* Drill: 4 readers pinned to the opening snapshot replay a fixed      *)
(* query while 1 writer streams batches; every read must be            *)
(* byte-identical (same checksum) to a serial execution of the same    *)
(* query on the same snapshot, sheds must be typed and counted, and    *)
(* the server must still answer afterwards.                            *)

(* Scratch data directories for the durability drills live under the
   system temp dir; best-effort recursive removal. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let serve_exp () =
  header "Serve: MVCC sessions + single writer + admission control over a Unix socket";
  let cfg =
    Kaskade_gen.Provenance_gen.(
      if !smoke then { default with jobs = 300; files = 600; seed = 42 }
      else { default with jobs = 2_000; files = 4_000; seed = 42 })
  in
  let g = Kaskade_gen.Provenance_gen.generate cfg in
  let ks = Kaskade.make g in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-bench-%d.sock" (Unix.getpid ()))
  in
  let max_sessions = 6 in
  (* Tight sampler + a zero-tolerance stale-view threshold so the
     health drill below can force ok -> degraded -> ok within the
     run (stale views never escalate past degraded by design). *)
  let server =
    Kaskade_serve.Server.create ~max_sessions ~max_inflight:4 ~max_queue:8
      ~sample_every_s:0.05 ~timeseries_capacity:8192
      ~thresholds:{ Kaskade_obs.Health.default_thresholds with Kaskade_obs.Health.max_stale_views = 0 }
      ~socket ks
  in
  let server_th = Thread.create (fun () -> Kaskade_serve.Server.run server) () in
  let qtext = "MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f" in
  (* Serial reference: same query, same snapshot, same executor
     configuration a session uses — the byte-identity baseline. *)
  let reference =
    let ctx =
      Kaskade_exec.Executor.create ~mode:Kaskade_exec.Executor.Distinct_endpoints ~planner:true g
    in
    Kaskade_serve.Wire.checksum
      (Kaskade_serve.Wire.render_result g
         (Kaskade_exec.Executor.run ctx (Kaskade.parse qtext)))
  in
  let field kvs k =
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> Printf.eprintf "FAIL: serve response missing %s\n" k; exit 1
  in
  let expect_ok lines =
    let kvs = Kaskade_serve.Client.status lines in
    if field kvs "_status" <> "ok" then begin
      Printf.eprintf "FAIL: serve request rejected: %s\n" (List.nth lines (List.length lines - 1));
      exit 1
    end;
    kvs
  in
  (* Health baseline: a freshly started, unloaded server reports ok. *)
  let c0 = Kaskade_serve.Client.connect socket in
  let h0 = expect_ok (Kaskade_serve.Client.request c0 "HEALTH") in
  if field h0 "status" <> "ok" then begin
    Printf.eprintf "FAIL: fresh server health %s (reasons %s)\n" (field h0 "status")
      (field h0 "reasons");
    exit 1
  end;
  Kaskade_serve.Client.close c0;
  let readers = 4 in
  let reads_per_reader = if !smoke then 25 else 200 in
  let writer_batches = if !smoke then 60 else 1_000 in
  let torn = Atomic.make 0 and reads_done = Atomic.make 0 in
  (* All readers pin before the writer starts, so each replay must see
     the opening snapshot for its whole lifetime. *)
  let clients =
    List.init readers (fun _ ->
        let c = Kaskade_serve.Client.connect socket in
        let kvs = expect_ok (Kaskade_serve.Client.request c "OPEN") in
        (c, int_of_string (field kvs "version")))
  in
  let v0 = snd (List.hd clients) in
  let reader (c, v_open) =
    for _ = 1 to reads_per_reader do
      let kvs = expect_ok (Kaskade_serve.Client.request c ("Q " ^ qtext)) in
      if field kvs "checksum" <> reference || int_of_string (field kvs "version") <> v_open
      then Atomic.incr torn;
      Atomic.incr reads_done
    done
  in
  let writer () =
    let c = Kaskade_serve.Client.connect socket in
    for _ = 1 to writer_batches do
      ignore (expect_ok (Kaskade_serve.Client.request c "UPDATE insert-vertex:File;insert-vertex:Job"))
    done;
    Kaskade_serve.Client.close c
  in
  let t0 = now () in
  let threads = Thread.create writer () :: List.map (fun cl -> Thread.create reader cl) clients in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  if Atomic.get torn > 0 then begin
    Printf.eprintf "FAIL: %d torn reads (checksum or version drifted off the pinned snapshot)\n"
      (Atomic.get torn);
    exit 1
  end;
  (* Admission: the session cap is global, so opens beyond it must be
     shed with the typed overloaded error and counted. *)
  let extras = List.init max_sessions (fun _ -> Kaskade_serve.Client.connect socket) in
  let sheds =
    List.fold_left
      (fun n c ->
        let kvs = Kaskade_serve.Client.status (Kaskade_serve.Client.request c "OPEN") in
        if field kvs "_status" = "err" then begin
          if field kvs "label" <> "overloaded" then begin
            Printf.eprintf "FAIL: shed open not typed overloaded: label=%s\n" (field kvs "label");
            exit 1
          end;
          n + 1
        end
        else n)
      0 extras
  in
  if sheds = 0 then begin
    Printf.eprintf "FAIL: opening %d extra sessions above the %d cap shed nothing\n"
      (List.length extras) max_sessions;
    exit 1
  end;
  (* The server survived the storm: STATS still answers, counts the
     sheds, and shows the writer's batches landed. *)
  let probe = Kaskade_serve.Client.connect socket in
  let stats = expect_ok (Kaskade_serve.Client.request probe "STATS") in
  let shed_counted = int_of_string (field stats "shed") in
  let version_now = int_of_string (field stats "version") in
  if shed_counted < sheds then begin
    Printf.eprintf "FAIL: shed_requests counted %d < %d observed\n" shed_counted sheds;
    exit 1
  end;
  if version_now < v0 + (2 * writer_batches) then begin
    Printf.eprintf "FAIL: version %d after %d writer batches (pinned at %d)\n" version_now
      writer_batches v0;
    exit 1
  end;
  ignore (expect_ok (Kaskade_serve.Client.request probe "PING"));
  (* Health drill: force degraded with stale-view pressure (views
     materialized, then an update through the wire), back to ok after
     an in-process refresh — with the shed storm above and the stale
     window both visible in the server's time-series ring. *)
  let string_contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  let wait_status want =
    let deadline = now () +. 5.0 in
    let rec go () =
      let kvs = expect_ok (Kaskade_serve.Client.request probe "HEALTH") in
      if field kvs "status" = want || now () > deadline then kvs
      else begin
        Thread.delay 0.02;
        go ()
      end
    in
    go ()
  in
  let sel = Kaskade.select_views ks ~queries:[ Kaskade.parse qtext ] ~budget_edges:(Graph.n_edges g) in
  if Kaskade.materialize_selected ks sel = [] then begin
    Printf.eprintf "FAIL: health drill materialized no views (vacuous stale pressure)\n";
    exit 1
  end;
  ignore (expect_ok (Kaskade_serve.Client.request probe "UPDATE insert-vertex:File"));
  let kvs = wait_status "degraded" in
  if field kvs "status" <> "degraded" then begin
    Printf.eprintf "FAIL: stale views did not degrade health (status %s, reasons %s)\n"
      (field kvs "status") (field kvs "reasons");
    exit 1
  end;
  if not (string_contains (field kvs "reasons") "stale_views") then begin
    Printf.eprintf "FAIL: degraded reasons missing stale_views: %s\n" (field kvs "reasons");
    exit 1
  end;
  (* Hold the degraded state across a few sampler ticks so the ring
     records the stale window, not just the HEALTH responses. *)
  Thread.delay 0.2;
  ignore (Kaskade.Update.refresh_views ks);
  let kvs = wait_status "ok" in
  if field kvs "status" <> "ok" then begin
    Printf.eprintf "FAIL: health did not recover after refresh (status %s, reasons %s)\n"
      (field kvs "status") (field kvs "reasons");
    exit 1
  end;
  let ts = Kaskade_serve.Server.timeseries server in
  let ring_deadline = now () +. 5.0 in
  let rec latest_recovered () =
    let ok =
      match Kaskade_obs.Timeseries.latest ts with
      | Some p -> Kaskade_obs.Timeseries.gauge_level p "kaskade.stale_views" = Some 0.0
      | None -> false
    in
    if ok || now () > ring_deadline then ok
    else begin
      Thread.delay 0.02;
      latest_recovered ()
    end
  in
  let recovered = latest_recovered () in
  let pts = Kaskade_obs.Timeseries.points ts in
  let shed_captured =
    List.exists
      (fun p -> Kaskade_obs.Timeseries.counter_delta p "kaskade.shed_requests" > 0)
      pts
  in
  let stale_captured =
    List.exists
      (fun p ->
        match Kaskade_obs.Timeseries.gauge_level p "kaskade.stale_views" with
        | Some v -> v > 0.0
        | None -> false)
      pts
  in
  if not (shed_captured && stale_captured && recovered) then begin
    Printf.eprintf
      "FAIL: time-series ring missed the transition (shed %b, stale window %b, recovered %b)\n"
      shed_captured stale_captured recovered;
    exit 1
  end;
  Printf.printf
    "health drill passed: ok -> degraded (stale views) -> ok after refresh; \
     ring captured shed storm + stale window across %d points\n"
    (List.length pts);
  ignore (expect_ok (Kaskade_serve.Client.request probe "SHUTDOWN"));
  Kaskade_serve.Client.close probe;
  List.iter (fun (c, _) -> Kaskade_serve.Client.close c) clients;
  List.iter Kaskade_serve.Client.close extras;
  Thread.join server_th;
  Printf.printf
    "%d reads across %d pinned sessions + %d writer batches in %.2fs (%.0f req/s): \
     0 torn reads, %d sheds typed+counted, server live throughout\n"
    (Atomic.get reads_done) readers writer_batches elapsed
    (float_of_int (Atomic.get reads_done + writer_batches) /. elapsed)
    sheds;
  (* WAL overhead: the writer's batch stream replayed against an
     in-memory facade and a durable one fsyncing every batch. The
     ratio lands in bench_metrics.json so the cost of durability on
     the serving write path is pinned, not guessed. *)
  let wal_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-serve-wal-%d" (Unix.getpid ()))
  in
  rm_rf wal_dir;
  let batch_ops =
    [ Graph.Overlay.Insert_vertex { vtype = "File"; props = [] };
      Graph.Overlay.Insert_vertex { vtype = "Job"; props = [] } ]
  in
  let mem_ks =
    Kaskade.make
      ~config:{ Kaskade.Config.default with auto_refresh = false }
      (Kaskade_gen.Provenance_gen.generate cfg)
  in
  let _, memory_s =
    time_once (fun () ->
        for _ = 1 to writer_batches do Kaskade.Update.batch batch_ops mem_ks done)
  in
  let wal_ks =
    Kaskade.make
      ~config:
        { Kaskade.Config.default with
          auto_refresh = false; data_dir = Some wal_dir;
          fsync_policy = Kaskade_store.Wal.Always; snapshot_every = max_int }
      (Kaskade_gen.Provenance_gen.generate cfg)
  in
  let _, wal_s =
    time_once (fun () ->
        for _ = 1 to writer_batches do Kaskade.Update.batch batch_ops wal_ks done)
  in
  (match Kaskade.store wal_ks with
  | Some s when Kaskade_store.Store.last_seq s = writer_batches -> ()
  | Some s ->
    Printf.eprintf "FAIL: WAL facade logged %d batches, expected %d\n"
      (Kaskade_store.Store.last_seq s) writer_batches;
    exit 1
  | None ->
    Printf.eprintf "FAIL: durable serve facade has no store attached\n";
    exit 1);
  rm_rf wal_dir;
  let overhead = wal_s /. Float.max 1e-9 memory_s in
  Printf.printf
    "WAL overhead: %d batches in-memory %.3fs vs fsync-always %.3fs (%.1fx)\n" writer_batches
    memory_s wal_s overhead;
  let open Kaskade_obs.Report in
  (* Merge, don't clobber: maintenance/e2e own other top-level keys. *)
  let existing =
    if Sys.file_exists "bench_metrics.json" then
      match parse (In_channel.with_open_text "bench_metrics.json" In_channel.input_all) with
      | Ok (Obj kvs) -> List.filter (fun (k, _) -> k <> "serve_wal") kvs
      | _ -> []
    else []
  in
  let json =
    Obj
      (existing
      @ [ ( "serve_wal",
            Obj
              [ ("batches", Int writer_batches); ("memory_s", Float memory_s);
                ("wal_always_s", Float wal_s); ("overhead_x", Float overhead) ] ) ])
  in
  let oc = open_out "bench_metrics.json" in
  output_string oc (to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  print_endline "serve drill passed (serve_wal overhead written to bench_metrics.json)"

(* ------------------------------------------------------------------ *)
(* Recovery: durability drill — kill mid-WAL-append, then recover      *)

(* A durable facade takes five recorded update batches (snapshots
   auto-fire every 4 appends), then a sixth batch is killed halfway
   through its WAL append (the ["store.wal_append"] fault writes half
   a record, fsyncs, and re-raises — the closest a test can get to
   pulling the plug). Recovery must rebuild the exact pre-crash store
   from newest-snapshot + WAL tail: graph byte-identical to a
   never-crashed twin, view freshness identical, the torn tail counted
   once, the tail past the snapshot replayed op-for-op, and the
   recovered facade must keep serving (append + re-recover). [--smoke]
   only shrinks the graph — the assertions are always hard. *)
let recovery () =
  header "Recovery: binary snapshot + WAL tail replay after a mid-append kill";
  let module M = Kaskade_obs.Metrics in
  let module Store = Kaskade_store.Store in
  let jobs = if !smoke then 150 else 1_000 in
  let gen () =
    Kaskade_gen.Provenance_gen.(generate { default with jobs; files = 2 * jobs; seed = 7 })
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kaskade-recovery-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let config =
    { Kaskade.Config.default with
      data_dir = Some dir; fsync_policy = Kaskade_store.Wal.Always; snapshot_every = 4;
      auto_refresh = false }
  in
  let view =
    Kaskade_views.View.Connector
      (Kaskade_views.View.K_hop { src_type = "Job"; dst_type = "Job"; k = 2 })
  in
  let ks = Kaskade.make ~config (gen ()) in
  ignore (Kaskade.materialize ks view);
  (* explicit snapshot now covers the materialized view, so recovery
     restores it instead of rematerializing *)
  ignore (Kaskade.snapshot ks);
  let recorded = ref [] in
  for i = 1 to 5 do
    let ops = Kaskade_gen.Mutate.random_ops ~seed:(100 + i) (Kaskade.graph ks) in
    recorded := ops :: !recorded;
    Kaskade.Update.batch ops ks
  done;
  let recorded = List.rev !recorded in
  let killed = Kaskade_gen.Mutate.random_ops ~seed:999 (Kaskade.graph ks) in
  (match
     Budget.Faults.(with_faults [ fault ~times:1 "store.wal_append" Fail ]) (fun () ->
         Kaskade.Update.batch killed ks)
   with
  | () ->
    Printf.eprintf "FAIL: mid-append kill did not abort the batch\n";
    exit 1
  | exception Budget.Fault_injected _ ->
    print_endline "batch 6 killed mid-WAL-append (half a record left on disk)");
  let m_replayed = M.counter "kaskade.recovery_replayed_ops" in
  let m_truncated = M.counter "kaskade.recovery_truncated_records" in
  let base_replayed = M.counter_value m_replayed in
  let base_truncated = M.counter_value m_truncated in
  let rks = Kaskade.recover ~config dir in
  (* never-crashed twin: same seed graph, same view, same recorded
     batches, no disk — the ground truth recovery must reproduce *)
  let twin = Kaskade.make ~config:{ config with Kaskade.Config.data_dir = None } (gen ()) in
  ignore (Kaskade.materialize twin view);
  List.iter (fun ops -> Kaskade.Update.batch ops twin) recorded;
  if Gio.to_string (Kaskade.graph rks) <> Gio.to_string (Kaskade.graph twin) then begin
    Printf.eprintf "FAIL: recovered graph differs from never-crashed twin\n";
    exit 1
  end;
  if Kaskade.Update.freshness rks <> Kaskade.Update.freshness twin then begin
    Printf.eprintf "FAIL: recovered view freshness differs from never-crashed twin\n";
    exit 1
  end;
  let d_truncated = M.counter_value m_truncated - base_truncated in
  if d_truncated <> 1 then begin
    Printf.eprintf "FAIL: torn tail counted %d times (want exactly 1)\n" d_truncated;
    exit 1
  end;
  let snap_seq = Store.snapshot_seq (Option.get (Kaskade.store rks)) in
  let expected_replayed =
    List.fold_left ( + ) 0
      (List.filteri (fun i _ -> i + 1 > snap_seq) (List.map List.length recorded))
  in
  let d_replayed = M.counter_value m_replayed - base_replayed in
  if d_replayed <> expected_replayed then begin
    Printf.eprintf "FAIL: replayed %d ops past snapshot seq %d (want %d)\n" d_replayed
      snap_seq expected_replayed;
    exit 1
  end;
  Printf.printf
    "recovered |V|=%d |E|=%d identical to twin: snapshot seq %d + %d replayed ops, 1 torn \
     record truncated\n"
    (Graph.n_vertices (Kaskade.graph rks)) (Graph.n_edges (Kaskade.graph rks)) snap_seq
    d_replayed;
  (* end-to-end: both sides repair their view and must answer the
     2-hop query with identical rows, via the view *)
  let q = Kaskade.parse "MATCH (a:Job)-[r*2..2]->(b:Job) RETURN a, b" in
  ignore (Kaskade.Update.refresh_views rks);
  ignore (Kaskade.Update.refresh_views twin);
  let module Executor = Kaskade_exec.Executor in
  let module Row = Kaskade_exec.Row in
  let rows_of = function
    | Executor.Table t -> List.sort compare (List.map Array.to_list t.Row.rows)
    | Executor.Affected n -> [ [ Row.Prim (Value.Int n) ] ]
  in
  let r_res, r_how = run_auto rks q in
  let t_res, _ = run_auto twin q in
  if rows_of r_res <> rows_of t_res then begin
    Printf.eprintf "FAIL: recovered facade answers the 2-hop query differently\n";
    exit 1
  end;
  (match r_how with
  | Kaskade.Via_view v -> Printf.printf "2-hop query via %s: rows match twin\n" v
  | Kaskade.Raw ->
    Printf.eprintf "FAIL: recovered view not used for the 2-hop query\n";
    exit 1);
  (* liveness: the recovered store keeps accepting appends, and a
     second recovery over the longer log is exact (idempotent) *)
  let more = Kaskade_gen.Mutate.random_ops ~seed:2024 (Kaskade.graph rks) in
  Kaskade.Update.batch more rks;
  let rks2 = Kaskade.recover ~config dir in
  if Gio.to_string (Kaskade.graph rks2) <> Gio.to_string (Kaskade.graph rks) then begin
    Printf.eprintf "FAIL: second recovery diverged after post-recovery appends\n";
    exit 1
  end;
  if not !smoke then begin
    (* fsync-policy cost: the trade-off the config knob buys *)
    let appends = 400 in
    let policy_time name policy =
      let pdir = dir ^ "-" ^ name in
      rm_rf pdir;
      let cfg =
        { config with
          Kaskade.Config.data_dir = Some pdir; fsync_policy = policy;
          snapshot_every = max_int }
      in
      let pks = Kaskade.make ~config:cfg (gen ()) in
      let _, t =
        time_once (fun () ->
            for _ = 1 to appends do
              ignore (Kaskade.Update.insert_vertex pks ~vtype:"File" ())
            done)
      in
      rm_rf pdir;
      Printf.printf "fsync %-9s %d appends in %.3fs (%.0f appends/s)\n" name appends t
        (float_of_int appends /. Float.max 1e-9 t)
    in
    policy_time "always" Kaskade_store.Wal.Always;
    policy_time "every:64" (Kaskade_store.Wal.Every_n 64);
    policy_time "never" Kaskade_store.Wal.Never
  end;
  rm_rf dir;
  print_endline "recovery drill passed: snapshot + WAL tail rebuilt the exact pre-crash store"

let all_experiments =
  [ ("table3", table3); ("table4", table4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig5k", fig5k); ("fig8", fig8); ("catalog", catalog); ("enum", enum); ("select", select);
    ("e2e", e2e); ("microbench", microbench); ("maintenance", maintenance);
    ("faults", faults); ("regress", regress); ("serve", serve_exp); ("recovery", recovery) ]
