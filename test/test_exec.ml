open Kaskade_graph
open Kaskade_exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lineage_schema = Kaskade_gen.Provenance_gen.schema

(* j0 writes f0, f1; f0 read by j1; f1 read by j1 and j2; j2 writes f2;
   user u0 submitted j0, j1; u1 submitted j2. *)
let small_lineage () =
  let b = Builder.create lineage_schema in
  let j =
    Array.init 3 (fun i ->
        Builder.add_vertex b ~vtype:"Job"
          ~props:
            [ ("name", Value.Str (Printf.sprintf "j%d" i));
              ("CPU", Value.Float (float_of_int (10 * (i + 1))));
              ("pipelineName", Value.Str (if i < 2 then "alpha" else "beta")) ]
          ())
  in
  let f =
    Array.init 3 (fun i ->
        Builder.add_vertex b ~vtype:"File"
          ~props:[ ("name", Value.Str (Printf.sprintf "f%d" i)) ] ())
  in
  let u = Array.init 2 (fun i ->
      Builder.add_vertex b ~vtype:"User" ~props:[ ("name", Value.Str (Printf.sprintf "u%d" i)) ] ())
  in
  let ts = ref 0 in
  let edge s d t =
    incr ts;
    ignore (Builder.add_edge b ~src:s ~dst:d ~etype:t ~props:[ ("timestamp", Value.Int !ts) ] ())
  in
  edge j.(0) f.(0) "WRITES_TO";
  edge j.(0) f.(1) "WRITES_TO";
  edge f.(0) j.(1) "IS_READ_BY";
  edge f.(1) j.(1) "IS_READ_BY";
  edge f.(1) j.(2) "IS_READ_BY";
  edge j.(2) f.(2) "WRITES_TO";
  edge u.(0) j.(0) "SUBMITTED";
  edge u.(0) j.(1) "SUBMITTED";
  edge u.(1) j.(2) "SUBMITTED";
  (Graph.freeze b, j, f, u)


(* First MATCH pattern of a query (planner tests). *)
module Ast_patterns = struct
  let first q = match Kaskade_query.Ast.patterns_of q with p :: _ -> Some p | [] -> None
end

let table ctx src = Executor.table_exn (Executor.run_string ctx src)

let names g t col =
  List.map
    (fun row ->
      match row.(Row.col_index t col) with
      | Row.V v -> begin
        match Graph.vprop g v "name" with Some (Value.Str s) -> s | _ -> "?"
      end
      | other -> Row.rval_to_string g other)
    t.Row.rows
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* MATCH basics                                                        *)

let test_scan_by_label () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) RETURN j" in
  Alcotest.(check (list string)) "all jobs" [ "j0"; "j1"; "j2" ] (names g t "j")

let test_scan_all () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_int "all vertices" (Graph.n_vertices g) (Row.n_rows (table ctx "MATCH (n) RETURN n"))

let test_single_edge_expand () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f" in
  check_int "three writes" 3 (Row.n_rows t)

let test_backward_edge () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File)<-[:WRITES_TO]-(j:Job) RETURN f, j" in
  check_int "same three writes" 3 (Row.n_rows t)

let test_two_hop_chain () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a, b" in
  (* j0-f0-j1, j0-f1-j1, j0-f1-j2 *)
  check_int "three 2-hop paths" 3 (Row.n_rows t)

let test_shared_var_join () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "MATCH (a:Job)-[:WRITES_TO]->(f:File), (f:File)-[:IS_READ_BY]->(b:Job) RETURN a, f, b"
  in
  check_int "join on f" 3 (Row.n_rows t)

let test_unknown_label_rejected () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_bool "semantic error" true
    (try
       ignore (table ctx "MATCH (x:Ghost) RETURN x");
       false
     with Kaskade_query.Analyze.Semantic_error _ -> true)

let test_edge_var_binding () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job)-[e:WRITES_TO]->(f:File) WHERE e.timestamp > 1 RETURN j, f" in
  check_int "filter on edge prop" 2 (Row.n_rows t)

(* ------------------------------------------------------------------ *)
(* Variable-length paths                                               *)

let test_var_length_distinct () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File)-[r*1..4]->(n:Job) RETURN f, n" in
  (* Distinct (file, job) pairs within 4 hops: f0->{j1,j2(f0-j1? no...)}:
     f0->j1 (1 hop), then j1 has no out-edges beyond... j1 writes
     nothing, so from f0: {j1}. f1->{j1, j2}, plus f1->j2->... j2
     writes f2, f2 read by nobody; f2->{} ; also f0->j1 only.
     Pairs: (f0,j1), (f1,j1), (f1,j2). Wait f0: 1-hop j1; j1 no
     out-edges. And (f1,j2)->f2: f2 is File not Job. Total 3. *)
  check_int "distinct pairs" 3 (Row.n_rows t)

let test_var_length_zero_lo () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File)-[r*0..2]->(x:File) RETURN f, x" in
  (* lo=0 pairs every file with itself (3) plus 2-hop file-file pairs:
     f0->j1->(nothing), f1->j1/j2->...: f1-j2-f2. So 3 + 1 = 4. *)
  check_int "self plus 2-hop" 4 (Row.n_rows t)

let test_var_length_trails_multiplicity () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create ~mode:Executor.All_trails g in
  let t = table ctx "MATCH (a:Job)-[r*2..2]->(b:Job) RETURN a, b" in
  (* Trails of length exactly 2 between jobs: j0-f0-j1, j0-f1-j1,
     j0-f1-j2 — multiplicity preserved. *)
  check_int "three trails" 3 (Row.n_rows t)

let test_var_length_modes_agree_on_sets () =
  let g, _, _, _ = small_lineage () in
  let distinct = Executor.create g in
  let trails = Executor.create ~mode:Executor.All_trails g in
  let set_of ctx =
    let t = table ctx "MATCH (a:Job)-[r*1..3]->(x) RETURN a, x" in
    List.sort_uniq compare
      (List.map (fun row -> (row.(0), row.(1))) t.Row.rows)
  in
  check_bool "same endpoint sets" true (set_of distinct = set_of trails)

let test_var_length_cycle_self_pair () =
  (* a -> b -> a cycle: distinct-endpoint expansion must report the
     source as reachable at hop 2 (connector-rewrite soundness). *)
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let v0 = Builder.add_vertex b ~vtype:"V" ~props:[ ("name", Value.Str "v0") ] () in
  let v1 = Builder.add_vertex b ~vtype:"V" ~props:[ ("name", Value.Str "v1") ] () in
  ignore (Builder.add_edge b ~src:v0 ~dst:v1 ~etype:"E" ());
  ignore (Builder.add_edge b ~src:v1 ~dst:v0 ~etype:"E" ());
  let g = Graph.freeze b in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (a)-[r*1..2]->(b) RETURN a, b" in
  check_int "both self-pairs found" 4 (Row.n_rows t)

let test_var_length_lo2_walk_semantics () =
  (* Line 0->1->2: with *2..2 only vertex 2 qualifies; vertex 1 is at
     distance 1 and has no length-2 walk. *)
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let ids = Array.init 3 (fun i -> Builder.add_vertex b ~vtype:"V" ~props:[ ("name", Value.Str (Printf.sprintf "v%d" i)) ] ()) in
  ignore (Builder.add_edge b ~src:ids.(0) ~dst:ids.(1) ~etype:"E" ());
  ignore (Builder.add_edge b ~src:ids.(1) ~dst:ids.(2) ~etype:"E" ());
  let g = Graph.freeze b in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (a)-[r*2..2]->(b) RETURN a, b" in
  check_int "exactly one length-2 pair" 1 (Row.n_rows t)

let test_var_length_etype_filter () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job)-[r:WRITES_TO*1..4]->(x) RETURN j, x" in
  (* WRITES_TO-only paths have length exactly 1 (File has no
     WRITES_TO out-edges). *)
  check_int "typed var-length" 3 (Row.n_rows t)

(* Random cyclic single-type graph shared by the reference properties. *)
let random_graph n m seed =
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let b = Builder.create schema in
  let rng = Kaskade_util.Prng.create seed in
  let ids = Array.init n (fun _ -> Builder.add_vertex b ~vtype:"V" ()) in
  for _ = 1 to m do
    let s = Kaskade_util.Prng.choose rng ids and d = Kaskade_util.Prng.choose rng ids in
    ignore (Builder.add_edge b ~src:s ~dst:d ~etype:"E" ())
  done;
  Graph.freeze b

let pairs_of_table t =
  List.sort compare
    (List.filter_map
       (fun row ->
         match (row.(0), row.(1)) with Row.V a, Row.V b -> Some (a, b) | _ -> None)
       t.Row.rows)

(* The scratch-buffer var-length rewrite vs a naive Hashtbl reference:
   the qualifying endpoint set is the union, over walk lengths l in
   [max(1,lo) .. hi], of the exact-l level sets (which also covers the
   lo<=1 reachability branch and cyclic self-pairs), plus (src, src)
   when lo = 0. *)
let prop_var_length_matches_reference =
  QCheck.Test.make ~name:"var-length endpoints = naive reference" ~count:40
    QCheck.(quad (2 -- 18) (0 -- 60) (0 -- 2) (0 -- 3))
    (fun (n, m, lo, extra) ->
      let hi = Stdlib.max 1 (lo + extra) in
      let g = random_graph n m (n + (m * 131) + (lo * 7) + extra) in
      let ctx = Executor.create g in
      let t = table ctx (Printf.sprintf "MATCH (a)-[r*%d..%d]->(b) RETURN a, b" lo hi) in
      let expected = ref [] in
      for src = 0 to n - 1 do
        let qualifies = Hashtbl.create 16 in
        if lo = 0 then Hashtbl.replace qualifies src ();
        let cur = ref (Hashtbl.create 16) in
        Hashtbl.replace !cur src ();
        for l = 1 to hi do
          let next = Hashtbl.create 16 in
          Hashtbl.iter
            (fun v () ->
              Graph.iter_out g v (fun ~dst ~etype:_ ~eid:_ -> Hashtbl.replace next dst ()))
            !cur;
          if l >= Stdlib.max 1 lo then
            Hashtbl.iter (fun v () -> Hashtbl.replace qualifies v ()) next;
          cur := next
        done;
        Hashtbl.iter (fun v () -> expected := (src, v) :: !expected) qualifies
      done;
      pairs_of_table t = List.sort compare !expected)

(* All-trails mode vs a naive edge-distinct DFS, multiplicity
   included. Kept tiny: trail counts grow combinatorially. *)
let prop_var_length_trails_matches_reference =
  QCheck.Test.make ~name:"var-length trails = naive DFS reference" ~count:40
    QCheck.(triple (2 -- 8) (0 -- 14) (1 -- 3))
    (fun (n, m, hi) ->
      let lo = 1 in
      let g = random_graph n m (n + (m * 257) + hi) in
      let ctx = Executor.create ~mode:Executor.All_trails g in
      let t = table ctx (Printf.sprintf "MATCH (a)-[r*%d..%d]->(b) RETURN a, b" lo hi) in
      let expected = ref [] in
      for src = 0 to n - 1 do
        let used = Hashtbl.create 16 in
        let rec dfs v len =
          if len >= lo then expected := (src, v) :: !expected;
          if len < hi then
            Graph.iter_out g v (fun ~dst ~etype:_ ~eid ->
                if not (Hashtbl.mem used eid) then begin
                  Hashtbl.replace used eid ();
                  dfs dst (len + 1);
                  Hashtbl.remove used eid
                end)
        in
        Graph.iter_out g src (fun ~dst ~etype:_ ~eid ->
            Hashtbl.replace used eid ();
            dfs dst 1;
            Hashtbl.remove used eid)
      done;
      pairs_of_table t = List.sort compare !expected)

(* ------------------------------------------------------------------ *)
(* WHERE / projections / aggregation                                   *)

let test_where_on_vertex_prop () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) WHERE j.CPU > 15 RETURN j" in
  Alcotest.(check (list string)) "filtered" [ "j1"; "j2" ] (names g t "j")

let test_projection_props () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) RETURN j.name AS n, j.CPU AS c" in
  check_int "rows" 3 (Row.n_rows t);
  Alcotest.(check (array string)) "cols" [| "n"; "c" |] t.Row.cols

let test_count_star () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "SELECT COUNT(*) FROM (MATCH (a)-[r]->(b) RETURN a)" in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Int n) |] ] -> check_int "edge count" (Graph.n_edges g) n
  | _ -> Alcotest.fail "bad count"

let test_group_by_aggregates () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT j.pipelineName, SUM(j.CPU), COUNT(*), MIN(j.CPU), MAX(j.CPU) FROM (MATCH (j:Job) RETURN j) GROUP BY j.pipelineName"
  in
  check_int "two pipelines" 2 (Row.n_rows t);
  let by_name =
    List.map
      (fun row ->
        match (row.(0), row.(1), row.(2), row.(3), row.(4)) with
        | Row.Prim (Value.Str p), Row.Prim s, Row.Prim (Value.Int c), Row.Prim mn, Row.Prim mx ->
          (p, (s, c, mn, mx))
        | _ -> Alcotest.fail "row shape")
      t.Row.rows
  in
  let s, c, mn, mx = List.assoc "alpha" by_name in
  check_bool "sum alpha" true (Value.equal s (Value.Float 30.0));
  check_int "count alpha" 2 c;
  check_bool "min alpha" true (Value.equal mn (Value.Float 10.0));
  check_bool "max alpha" true (Value.equal mx (Value.Float 20.0))

let test_avg () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "SELECT AVG(j.CPU) FROM (MATCH (j:Job) RETURN j)" in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Float a) |] ] -> Alcotest.(check (float 1e-9)) "avg" 20.0 a
  | _ -> Alcotest.fail "bad avg"

let test_avg_skips_non_numeric () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* AVG divides by the values that have a numeric reading only:
     strings are neither summed nor counted, and an AVG with no
     numeric value at all is NULL, like an AVG over nothing. *)
  let t = table ctx "SELECT AVG(j.name) FROM (MATCH (j:Job) RETURN j)" in
  (match t.Row.rows with
  | [ [| v |] ] -> check_bool "avg of strings is null" true (Row.rval_equal v (Row.Prim Value.Null))
  | _ -> Alcotest.fail "expected one aggregate row");
  let b = Builder.create lineage_schema in
  List.iter
    (fun x -> ignore (Builder.add_vertex b ~vtype:"Job" ~props:[ ("x", x) ] ()))
    [ Value.Int 2; Value.Str "skip"; Value.Float 4.0; Value.Null ];
  ignore (Builder.add_vertex b ~vtype:"Job" ());
  let t = table (Executor.create (Graph.freeze b)) "SELECT AVG(j.x), COUNT(j.x) FROM (MATCH (j:Job) RETURN j)" in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Float a); Row.Prim (Value.Int n) |] ] ->
    Alcotest.(check (float 1e-9)) "mean of the numeric values" 3.0 a;
    check_int "COUNT still counts every non-null value" 3 n
  | _ -> Alcotest.fail "bad avg"

let test_nested_select () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT AVG(total) FROM (SELECT u, COUNT(*) AS total FROM (MATCH (u:User)-[:SUBMITTED]->(j:Job) RETURN u, j) GROUP BY u)"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Float a) |] ] -> Alcotest.(check (float 1e-9)) "avg submissions" 1.5 a
  | _ -> Alcotest.fail "bad nested"

let test_select_where () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT j FROM (MATCH (j:Job) RETURN j) WHERE j.CPU >= 20"
  in
  check_int "filtered outer" 2 (Row.n_rows t)

let test_group_by_vertex () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT a, COUNT(*) FROM (MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f) GROUP BY a"
  in
  check_int "two writers" 2 (Row.n_rows t)

let test_listing1_full () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT A.pipelineName, AVG(T_CPU) FROM (SELECT A, SUM(B.CPU) AS T_CPU FROM (MATCH (q_j1:Job)-[:WRITES_TO]->(q_f1:File) (q_f1:File)-[r*0..8]->(q_f2:File) (q_f2:File)-[:IS_READ_BY]->(q_j2:Job) RETURN q_j1 as A, q_j2 as B) GROUP BY A, B) GROUP BY A.pipelineName"
  in
  (* Only j0 and j2 write; j2's file is read by nobody, so only j0
     (pipeline alpha) produces rows. *)
  check_int "one pipeline row" 1 (Row.n_rows t)


let test_order_by_limit () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "SELECT j.name AS n, j.CPU AS c FROM (MATCH (j:Job) RETURN j) ORDER BY c DESC LIMIT 2" in
  check_int "limited" 2 (Row.n_rows t);
  (match t.Row.rows with
  | [ first; second ] ->
    check_bool "descending" true
      (Row.rval_compare first.(1) second.(1) > 0)
  | _ -> Alcotest.fail "rows");
  let asc = table ctx "SELECT j.name AS n FROM (MATCH (j:Job) RETURN j) ORDER BY j.name" in
  (match asc.Row.rows with
  | [ a; _; c ] ->
    check_bool "ascending names" true (Row.rval_compare a.(0) c.(0) < 0)
  | _ -> Alcotest.fail "rows")

let test_order_by_aggregate_alias () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT j.pipelineName AS p, SUM(j.CPU) AS total FROM (MATCH (j:Job) RETURN j) GROUP BY j.pipelineName ORDER BY total DESC LIMIT 1"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Str p); _ |] ] -> Alcotest.(check string) "top pipeline" "alpha" p
  | _ -> Alcotest.fail "shape"


let test_index_probe_scan () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* Equality on the start variable: the executor probes the on-demand
     index instead of scanning; results identical to the scan path. *)
  let t = table ctx "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = 'j0' RETURN j, f" in
  check_int "j0 writes two files" 2 (Row.n_rows t);
  let t2 = table ctx "MATCH (j:Job) WHERE j.name = 'nope' RETURN j" in
  check_int "no match" 0 (Row.n_rows t2);
  (* The probed conjunct is not re-evaluated; every other one still
     filters, on either side of the AND. *)
  List.iter
    (fun where ->
      let t = table ctx ("MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE " ^ where ^ " RETURN j, f") in
      check_int (where ^ ": residual conjunct filters") 1 (Row.n_rows t))
    [ "j.name = 'j0' AND f.name = 'f1'"; "f.name = 'f1' AND j.name = 'j0'" ];
  (* A start variable bound by an earlier pattern is resumed, not
     probed, so its equality conjunct must still filter. *)
  let t3 =
    table ctx
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) (f:File)-[:IS_READ_BY]->(k:Job) WHERE f.name = 'f1' \
       RETURN j, f, k"
  in
  check_int "only f1's readers" 2 (Row.n_rows t3)

let test_index_probe_numeric_equality () =
  (* The probe must agree with [Value.equal], which equates [Int n]
     with [Float n.]: an integral float literal finds the int-valued
     vertex, exactly as the same predicate does on the scan path. *)
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 40; files = 80; seed = 3 }) in
  let ctx = Executor.create g in
  let f = (Graph.vertices_of_type_name g "File").(7) in
  let bytes = match Graph.vprop g f "bytes" with Some (Value.Int n) -> n | _ -> Alcotest.fail "bytes" in
  let same name probe scan =
    let a = table ctx probe and b = table ctx scan in
    check_bool (name ^ ": probe = scan") true (a.Row.rows = b.Row.rows);
    a
  in
  let probe = Printf.sprintf "MATCH (f:File) WHERE f.bytes = %d.0 RETURN f" bytes in
  let t = same "float literal" probe (Printf.sprintf "MATCH (f:File) WHERE NOT (f.bytes <> %d.0) RETURN f" bytes) in
  check_bool "float literal finds the file" true (List.mem [| Row.V f |] t.Row.rows);
  check_bool "plan probes the index" true
    (let plan = Kaskade_obs.Explain.render (Executor.explain ctx (Kaskade_query.Qparser.parse probe)) in
     let k = String.length "NodeIndexSeek" in
     let rec at i = i + k <= String.length plan && (String.sub plan i k = "NodeIndexSeek" || at (i + 1)) in
     at 0);
  ignore
    (same "int literal on a float column"
       "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.CPU = 7 RETURN j, f"
       "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE NOT (j.CPU <> 7) RETURN j, f");
  (* [x.p = null] holds for every vertex lacking [p]: never probed. *)
  let t = same "null literal" "MATCH (f:File) WHERE f.nope = null RETURN f" "MATCH (f:File) RETURN f" in
  check_int "every file" (Array.length (Graph.vertices_of_type_name g "File")) (Row.n_rows t)

let prop_index_probe_equivalent =
  QCheck.Test.make ~name:"index probe = scan results" ~count:20
    QCheck.(pair (10 -- 60) (0 -- 300))
    (fun (jobs, seed) ->
      let g = Kaskade_gen.Provenance_gen.(generate { default with jobs; files = jobs; seed }) in
      let ctx = Executor.create g in
      let rng = Kaskade_util.Prng.create (seed + 1) in
      let target = Printf.sprintf "job_%d" (Kaskade_util.Prng.int rng jobs) in
      let probed =
        table ctx
          (Printf.sprintf "MATCH (j:Job)-[:WRITES_TO]->(f:File) WHERE j.name = '%s' RETURN j, f" target)
      in
      (* Force the scan path by filtering on a non-start variable. *)
      let scanned =
        table ctx
          (Printf.sprintf
             "MATCH (f:File)<-[:WRITES_TO]-(j:Job) WHERE j.name = '%s' RETURN j, f" target)
      in
      (* Both queries RETURN j, f — same column order. *)
      List.sort_uniq compare probed.Row.rows = List.sort_uniq compare scanned.Row.rows)


let test_select_distinct () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let dup = table ctx "SELECT j.pipelineName AS p FROM (MATCH (j:Job) RETURN j)" in
  check_int "with duplicates" 3 (Row.n_rows dup);
  let t = table ctx "SELECT DISTINCT j.pipelineName AS p FROM (MATCH (j:Job) RETURN j)" in
  check_int "distinct pipelines" 2 (Row.n_rows t);
  (* DISTINCT composes with ORDER BY / LIMIT. *)
  let t2 =
    table ctx
      "SELECT DISTINCT j.pipelineName AS p FROM (MATCH (j:Job) RETURN j) ORDER BY p DESC LIMIT 1"
  in
  match t2.Row.rows with
  | [ [| Row.Prim (Value.Str p) |] ] -> Alcotest.(check string) "beta first desc" "beta" p
  | _ -> Alcotest.fail "shape"

(* ------------------------------------------------------------------ *)
(* CALL procedures                                                     *)

let test_call_label_propagation () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (match Executor.run_string ctx "CALL algo.labelPropagation(5)" with
  | Executor.Affected n -> check_int "touches all vertices" (Graph.n_vertices g) n
  | _ -> Alcotest.fail "expected Affected");
  check_bool "labels stored" true (Executor.communities ctx <> None)

let test_call_largest_community () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  ignore (Executor.run_string ctx "CALL algo.labelPropagation(5)");
  let t = table ctx "CALL algo.largestCommunity('Job')" in
  check_bool "nonempty" true (Row.n_rows t > 0)

let test_call_largest_requires_lp () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_bool "raises without LP" true
    (try
       ignore (table ctx "CALL algo.largestCommunity('Job')");
       false
     with Invalid_argument _ -> true)

let test_call_unknown_proc () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  check_bool "unknown proc" true
    (try
       ignore (Executor.run_string ctx "CALL algo.bogus(1)");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let test_cost_monotone_in_path_length () =
  (* A denser graph, where each expansion has branching factor > 1. *)
  let g = Kaskade_gen.Provenance_gen.(generate { default with jobs = 100; files = 150; seed = 2 }) in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let cost src = Cost.eval_cost stats schema (Kaskade_query.Qparser.parse src) in
  let c1 = cost "MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a" in
  let c2 = cost "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN a" in
  check_bool "longer pattern costs more" true (c2 > c1)

let test_cost_var_length_grows () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let cost src = Cost.eval_cost stats schema (Kaskade_query.Qparser.parse src) in
  let short = cost "MATCH (f:File)-[r*1..2]->(x) RETURN f" in
  let long = cost "MATCH (f:File)-[r*1..8]->(x) RETURN f" in
  check_bool "wider range costs more" true (long >= short)

let test_cost_deg_override () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let q = Kaskade_query.Qparser.parse "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j" in
  let base = Cost.eval_cost stats schema q in
  let boosted =
    Cost.eval_cost ~deg_override:(fun l -> if l = "Job" then Some 50.0 else None) stats schema q
  in
  check_bool "override raises cost" true (boosted > base)

let test_cost_scan_label_cheaper () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let cost src = Cost.eval_cost stats schema (Kaskade_query.Qparser.parse src) in
  check_bool "typed scan cheaper than full scan" true
    (cost "MATCH (j:Job) RETURN j" < cost "MATCH (n) RETURN n")



(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let row_set (t : Row.table) = List.sort_uniq compare t.Row.rows

let test_planner_anchor_choice () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  (* Users (2) are rarer than Jobs (3): anchor at the User end. *)
  let q = Kaskade_query.Qparser.parse "MATCH (j:Job)<-[:SUBMITTED]-(u:User) RETURN j, u" in
  (match Ast_patterns.first q with
  | Some p ->
    check_int "anchor at user" 1 (Planner.anchor_position stats schema ~bound:(fun _ -> false) p)
  | None -> Alcotest.fail "no pattern");
  (* An unlabelled head loses to any labelled node. *)
  let q2 = Kaskade_query.Qparser.parse "MATCH (x)-[:WRITES_TO]->(f:File) RETURN x, f" in
  match Ast_patterns.first q2 with
  | Some p ->
    check_int "anchor at file" 1 (Planner.anchor_position stats schema ~bound:(fun _ -> false) p)
  | None -> Alcotest.fail "no pattern"

let test_planner_bound_var_wins () =
  let g, _, _, _ = small_lineage () in
  let stats = Gstats.compute g in
  let schema = Graph.schema g in
  let q = Kaskade_query.Qparser.parse "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f" in
  match Ast_patterns.first q with
  | Some p ->
    check_int "bound j beats File scan" 0
      (Planner.anchor_position stats schema ~bound:(fun v -> v = "j") p)
  | None -> Alcotest.fail "no pattern"

let test_planner_preserves_results () =
  let g, _, _, _ = small_lineage () in
  let plain = Executor.create g in
  let planned = Executor.create ~planner:true g in
  List.iter
    (fun src ->
      let a = row_set (table plain src) and b = row_set (table planned src) in
      if a <> b then Alcotest.failf "planner changed results of %s" src)
    [ "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
      "MATCH (x)-[:WRITES_TO]->(f:File) RETURN x, f";
      "MATCH (u:User)-[:SUBMITTED]->(j:Job)-[:WRITES_TO]->(f:File) RETURN u, f";
      "MATCH (a:Job)-[:WRITES_TO]->(f:File) (f:File)-[r*0..4]->(g2:File) RETURN a, g2";
      "MATCH (f:File)<-[:WRITES_TO]-(j:Job)<-[:SUBMITTED]-(u:User) RETURN f, u";
      "SELECT COUNT(*) FROM (MATCH (a)-[r]->(b) RETURN a)" ]

let prop_planner_equivalent =
  QCheck.Test.make ~name:"planner preserves result sets" ~count:20
    QCheck.(pair (10 -- 50) (0 -- 300))
    (fun (jobs, seed) ->
      let g = Kaskade_gen.Provenance_gen.(generate { default with jobs; files = 2 * jobs; seed }) in
      let plain = Executor.create g in
      let planned = Executor.create ~planner:true g in
      List.for_all
        (fun src -> row_set (table plain src) = row_set (table planned src))
        [ "MATCH (x)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) RETURN x, b";
          "MATCH (t:Task)<-[:HAS_TASK]-(j:Job)-[:WRITES_TO]->(f:File) RETURN t, f";
          "MATCH (j:Job)-[r*1..3]->(x) RETURN j, x" ])

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)

let test_null_propagation () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* Files have no CPU: comparisons with Null are falsy, so the filter
     keeps nothing. *)
  let t = table ctx "MATCH (f:File) WHERE f.CPU > 0 RETURN f" in
  check_int "null comparisons fail" 0 (Row.n_rows t)

let test_missing_prop_projects_null () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (f:File) RETURN f.CPU" in
  check_int "rows" 3 (Row.n_rows t);
  List.iter
    (fun row -> check_bool "null" true (Row.rval_equal row.(0) (Row.Prim Value.Null)))
    t.Row.rows

let test_avg_of_empty_group () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* WHERE keeps nothing; SQL still yields a single aggregate row,
     with a NULL average. *)
  let t = table ctx "SELECT AVG(j.CPU) FROM (MATCH (j:Job) RETURN j) WHERE j.CPU > 1000" in
  match t.Row.rows with
  | [ [| v |] ] -> check_bool "null avg" true (Row.rval_equal v (Row.Prim Value.Null))
  | _ -> Alcotest.fail "expected exactly one aggregate row"

let test_sum_skips_nulls () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* Mixed vertex set: only jobs carry CPU; SUM ignores nulls. *)
  let t = table ctx "SELECT SUM(n.CPU) FROM (MATCH (n) RETURN n)" in
  match t.Row.rows with
  | [ [| Row.Prim v |] ] -> check_bool "sum over jobs only" true (Value.equal v (Value.Float 60.0))
  | _ -> Alcotest.fail "bad shape"

let test_count_vs_count_star () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx "SELECT COUNT(*), COUNT(n.CPU) FROM (MATCH (n) RETURN n)"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Int all); Row.Prim (Value.Int non_null) |] ] ->
    check_int "count star counts rows" (Graph.n_vertices g) all;
    check_int "count expr skips nulls" 3 non_null
  | _ -> Alcotest.fail "bad shape"

let test_string_predicates () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) WHERE j.pipelineName = 'alpha' RETURN j" in
  check_int "string equality" 2 (Row.n_rows t);
  let t2 = table ctx "MATCH (j:Job) WHERE j.pipelineName <> 'alpha' RETURN j" in
  check_int "string inequality" 1 (Row.n_rows t2)

let test_arithmetic_in_projection () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t = table ctx "MATCH (j:Job) WHERE j.CPU * 2 >= 40 RETURN j.CPU + 1 AS c" in
  check_int "two jobs qualify" 2 (Row.n_rows t);
  List.iter
    (fun row ->
      match row.(0) with
      | Row.Prim (Value.Float c) -> check_bool "bumped" true (c = 21.0 || c = 31.0)
      | _ -> Alcotest.fail "expected float")
    t.Row.rows

let test_triple_nested_select () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  let t =
    table ctx
      "SELECT MAX(avg_cpu) FROM (SELECT p, AVG(c) AS avg_cpu FROM (SELECT j.pipelineName AS p, j.CPU AS c FROM (MATCH (j:Job) RETURN j)) GROUP BY p)"
  in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Float m) |] ] -> Alcotest.(check (float 1e-9)) "max of avgs" 30.0 m
  | _ -> Alcotest.fail "bad shape"

let test_self_join_same_var () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* (a)-->(a) requires a self loop; none exist. *)
  let t = table ctx "MATCH (a:Job)-[:WRITES_TO]->(f:File)<-[:WRITES_TO]-(a:Job) RETURN a, f" in
  (* Both endpoints are the same var: only genuine (a writes f) rows
     where the same a matches twice. *)
  check_int "self-join consistency" 3 (Row.n_rows t)

let test_empty_graph () =
  let schema = Schema.define ~vertices:[ "V" ] ~edges:[ ("V", "E", "V") ] in
  let g = Graph.freeze (Builder.create schema) in
  let ctx = Executor.create g in
  check_int "scan empty" 0 (Row.n_rows (table ctx "MATCH (n:V) RETURN n"));
  let t = table ctx "SELECT COUNT(*) FROM (MATCH (n:V) RETURN n)" in
  match t.Row.rows with
  | [ [| Row.Prim (Value.Int 0) |] ] -> ()
  | _ -> Alcotest.fail "count on empty graph"

let test_var_length_unbounded () =
  let g, _, _, _ = small_lineage () in
  let ctx = Executor.create g in
  (* `*` = 1..infinity terminates because BFS exhausts the frontier. *)
  let t = table ctx "MATCH (f:File)-[r*]->(x) RETURN f, x" in
  check_bool "terminates with results" true (Row.n_rows t > 0)

(* ------------------------------------------------------------------ *)
(* Parallel start scans                                                *)

let test_parallel_scan_matches_sequential () =
  (* Past the candidate threshold the executor fans the start scan out
     over work-stealing morsels. Rows — and their order — must be
     byte-identical to the sequential context; oversubscription forces
     real worker domains even on a single-core host. *)
  let g =
    Kaskade_gen.Provenance_gen.(generate { default with jobs = 2_500; files = 5_000; seed = 7 })
  in
  let seq_ctx = Executor.create g in
  let par_ctx =
    Executor.create ~pool:(Kaskade_util.Pool.create ~domains:4 ~oversubscribe:true ()) g
  in
  List.iter
    (fun src ->
      let a = table seq_ctx src in
      let b = table par_ctx src in
      check_bool (src ^ ": identical rows in identical order") true
        (a.Row.rows = b.Row.rows && a.Row.cols = b.Row.cols))
    [ "MATCH (j:Job) RETURN j";
      "MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f";
      "MATCH (n) RETURN n";
      "SELECT COUNT(*) FROM (MATCH (j:Job)-[:WRITES_TO]->(f:File) RETURN j, f)" ]

let test_parallel_scan_budget_exhaustion () =
  (* A mid-scan budget trip inside a morsel must surface as the usual
     typed [Budget.Exhausted] and leave the context reusable. *)
  let g =
    Kaskade_gen.Provenance_gen.(generate { default with jobs = 2_500; files = 5_000; seed = 7 })
  in
  let pool = Kaskade_util.Pool.create ~domains:4 ~oversubscribe:true () in
  let ctx = Executor.create ~pool g in
  let b = Kaskade_util.Budget.create ~max_steps:100 () in
  (try
     ignore (Executor.run ~budget:b ctx (Kaskade_query.Qparser.parse "MATCH (j:Job) RETURN j"));
     Alcotest.fail "expected budget exhaustion"
   with Kaskade_util.Budget.Exhausted e ->
     check_bool "execute stage" true (e.stage = Kaskade_util.Budget.Execute));
  check_int "context still runs after exhaustion" 2_500
    (Row.n_rows (table ctx "MATCH (j:Job) RETURN j"))

(* ------------------------------------------------------------------ *)
(* Table IV golden results                                             *)

(* Table IV Q1-Q4 (the served benchmark's lineage shapes) anchored on
   each pipeline of a small seeded provenance graph, answered from the
   base graph and through the selected views. The expected checksums
   are the canonical wire rendering ([Wire.render_result] +
   [Wire.checksum]) recorded from the list-based interpreter that the
   compiled row pipeline replaced: any byte of drift in rows, row
   order, group order or aggregate values fails here. *)
let table_iv_text ~shape ~pipeline =
  let p = Printf.sprintf "pipeline_%d" pipeline in
  match shape with
  | 0 ->
    Printf.sprintf
      "SELECT A.pipelineName, AVG(T_CPU) FROM (SELECT A, SUM(B.CPU) AS T_CPU FROM (MATCH \
       (q_j1:Job)-[:WRITES_TO]->(q_f1:File) (q_f1:File)-[r*0..8]->(q_f2:File) \
       (q_f2:File)-[:IS_READ_BY]->(q_j2:Job) WHERE q_j1.pipelineName = '%s' RETURN q_j1 as A, \
       q_j2 as B) GROUP BY A, B) GROUP BY A.pipelineName"
      p
  | 1 -> Printf.sprintf "MATCH (s:Job)<-[r*1..4]-(anc:Job) WHERE s.pipelineName = '%s' RETURN s, anc" p
  | 2 -> Printf.sprintf "MATCH (s:Job)-[r*1..4]->(desc:Job) WHERE s.pipelineName = '%s' RETURN s, desc" p
  | _ ->
    Printf.sprintf
      "SELECT s, n, MAX(r) FROM (MATCH (s:Job)-[r*1..4]->(n) WHERE s.pipelineName = '%s' RETURN s, \
       n, r) GROUP BY s, n"
      p

let table_iv_golden =
  [
    ("base q1 pipeline_0", 1, "f02d6eeb6a779958/20d762d1210a7605");
    ("base q2 pipeline_0", 194, "b1c148f742c8aae0/eba5f9992b1a7ce7");
    ("base q3 pipeline_0", 49, "16207fa455998980/228b0356e24ce82f");
    ("base q4 pipeline_0", 423, "86e439c96f2816ce/6dde4d3316b54b4d");
    ("base q1 pipeline_1", 1, "4e836ccd4859bf8e/a3b8855c3a579577");
    ("base q2 pipeline_1", 206, "a189639231ca02ae/f4978a99e4179bb5");
    ("base q3 pipeline_1", 244, "5bf39d7bd971943b/12af4b4a47faf757");
    ("base q4 pipeline_1", 771, "bf2d07b0066c0c1f/bae9af9040448d8c");
    ("base q1 pipeline_2", 1, "b135e575855d4412/3b68028081726f7b");
    ("base q2 pipeline_2", 233, "b9f9e21cc5429048/1f120961f12c3cf7");
    ("base q3 pipeline_2", 342, "e911d6977b3ff5c4/41b92960df46d0eb");
    ("base q4 pipeline_2", 1766, "e6104d4c46c2cd41/5834cf8094647cc4");
    ("base q1 pipeline_3", 1, "22f6487ac191ef88/2d2c3721f1db26b5");
    ("base q2 pipeline_3", 186, "9d32ab2cda374187/bcca49c04d3e8fc3");
    ("base q3 pipeline_3", 103, "34b3a3a79817c6db/f31e078117e62c9d");
    ("base q4 pipeline_3", 840, "d6f3fc574ec4c942/046d3ea086c8fb4a");
    ("base q1 pipeline_4", 1, "09a10586a1dc36ac/9002d19e4fa03075");
    ("base q2 pipeline_4", 313, "f14f9a957ca1a75f/3c928b478f9fbe2d");
    ("base q3 pipeline_4", 270, "02f1ad9bd900a92c/b608535caa0cbcfd");
    ("base q4 pipeline_4", 998, "e0c50243e3bca7dd/5ddd7d71574935f3");
    ("base q1 pipeline_5", 1, "2e8512826e92296e/20cd2a3aaa9e4fef");
    ("base q2 pipeline_5", 144, "fdf28fdcacc2d90b/6fea5e5573e09beb");
    ("base q3 pipeline_5", 268, "39972f5bdd0c1f63/03a5d68bb014d723");
    ("base q4 pipeline_5", 1343, "7d6ef5f207ee9b1c/a7e7aae612f4d914");
    ("auto q1 pipeline_0", 1, "f02d6eeb6a779958/20d762d1210a7605");
    ("auto q2 pipeline_0", 194, "b1c148f742c8aae0/eba5f9992b1a7ce7");
    ("auto q3 pipeline_0", 49, "16207fa455998980/228b0356e24ce82f");
    ("auto q4 pipeline_0", 423, "86e439c96f2816ce/6dde4d3316b54b4d");
    ("auto q1 pipeline_1", 1, "4e836ccd4859bf8e/a3b8855c3a579577");
    ("auto q2 pipeline_1", 206, "a189639231ca02ae/f4978a99e4179bb5");
    ("auto q3 pipeline_1", 244, "5bf39d7bd971943b/12af4b4a47faf757");
    ("auto q4 pipeline_1", 771, "bf2d07b0066c0c1f/bae9af9040448d8c");
    ("auto q1 pipeline_2", 1, "b135e575855d4412/3b68028081726f7b");
    ("auto q2 pipeline_2", 233, "b9f9e21cc5429048/1f120961f12c3cf7");
    ("auto q3 pipeline_2", 342, "e911d6977b3ff5c4/41b92960df46d0eb");
    ("auto q4 pipeline_2", 1766, "e6104d4c46c2cd41/5834cf8094647cc4");
    ("auto q1 pipeline_3", 1, "22f6487ac191ef88/2d2c3721f1db26b5");
    ("auto q2 pipeline_3", 186, "9d32ab2cda374187/bcca49c04d3e8fc3");
    ("auto q3 pipeline_3", 103, "34b3a3a79817c6db/f31e078117e62c9d");
    ("auto q4 pipeline_3", 840, "d6f3fc574ec4c942/046d3ea086c8fb4a");
    ("auto q1 pipeline_4", 1, "09a10586a1dc36ac/9002d19e4fa03075");
    ("auto q2 pipeline_4", 313, "f14f9a957ca1a75f/3c928b478f9fbe2d");
    ("auto q3 pipeline_4", 270, "02f1ad9bd900a92c/b608535caa0cbcfd");
    ("auto q4 pipeline_4", 998, "e0c50243e3bca7dd/5ddd7d71574935f3");
    ("auto q1 pipeline_5", 1, "2e8512826e92296e/20cd2a3aaa9e4fef");
    ("auto q2 pipeline_5", 144, "fdf28fdcacc2d90b/6fea5e5573e09beb");
    ("auto q3 pipeline_5", 268, "39972f5bdd0c1f63/03a5d68bb014d723");
    ("auto q4 pipeline_5", 1343, "7d6ef5f207ee9b1c/a7e7aae612f4d914");
  ]

let test_table_iv_golden () =
  let cfg = Kaskade_gen.Provenance_gen.{ default with jobs = 300; files = 600; pipelines = 6; seed = 11 } in
  let g = Kaskade_gen.Provenance_gen.generate cfg in
  let ks = Kaskade.make g in
  let sel =
    Kaskade.select_views ks
      ~queries:(List.init 4 (fun shape -> Kaskade.parse (table_iv_text ~shape ~pipeline:0)))
      ~budget_edges:(Graph.n_edges g)
  in
  check_bool "views selected" true (Kaskade.materialize_selected ks sel <> []);
  let actual =
    List.concat_map
      (fun (tname, target) ->
        List.concat_map
          (fun pipeline ->
            List.init 4 (fun shape ->
                match Kaskade.query ~target ks (Kaskade.parse (table_iv_text ~shape ~pipeline)) with
                | Ok (r, _) ->
                  let t = Executor.table_exn r in
                  (* [render_result] shows 20 rows; the second digest
                     covers every row. *)
                  let all_rows =
                    String.concat "\n"
                      (List.map
                         (fun row ->
                           String.concat " | "
                             (Array.to_list (Array.map (Row.rval_to_string (Kaskade.graph ks)) row)))
                         t.Row.rows)
                  in
                  ( Printf.sprintf "%s q%d pipeline_%d" tname (shape + 1) pipeline,
                    Row.n_rows t,
                    Kaskade_serve.Wire.(checksum (render_result (Kaskade.graph ks) r))
                    ^ "/" ^ Kaskade_serve.Wire.checksum all_rows )
                | Error e -> Alcotest.fail (Kaskade.Error.to_string e)))
          (List.init cfg.pipelines Fun.id))
      [ ("base", Kaskade.Base); ("auto", Kaskade.Auto) ]
  in
  if actual <> table_iv_golden then begin
    List.iter (fun (l, n, c) -> Printf.printf "    (%S, %d, %S);\n" l n c) actual;
    Alcotest.fail "Table IV results drifted from the recorded golden checksums"
  end

(* ------------------------------------------------------------------ *)
(* Compiled row pipeline vs a list-based reference                     *)

(* The reference is the row interpreter the compiled pipeline
   replaced, kept deliberately naive: string-keyed environments over
   materialized row lists, groups as member lists re-walked per
   aggregate. Both sides must agree on every generated query — same
   columns, same rows in the same order — or both fail. *)
module Reference = struct
  module Ast = Kaskade_query.Ast

  let null = Row.Prim Value.Null
  let truthy = function Row.Prim v -> Value.is_truthy v | Row.V _ | Row.E _ -> true

  let lookup cols (row : Row.rval array) name =
    match Row.col_index { Row.cols; rows = [] } name with i -> row.(i) | exception Not_found -> null

  let rec eval env (e : Ast.expr) =
    let prim f a b =
      match (eval env a, eval env b) with
      | Row.Prim x, Row.Prim y -> Row.Prim (f x y)
      | _ -> invalid_arg "arithmetic on a graph entity"
    in
    let bool b = Row.Prim (Value.Bool b) in
    match e with
    | Ast.Var v -> env v
    | Ast.Prop _ -> invalid_arg "no properties in the reference"
    | Ast.Lit v -> Row.Prim v
    | Ast.Unop (Ast.Neg, a) -> begin
      match eval env a with
      | Row.Prim (Value.Int n) -> Row.Prim (Value.Int (-n))
      | Row.Prim (Value.Float f) -> Row.Prim (Value.Float (-.f))
      | _ -> null
    end
    | Ast.Unop (Ast.Not, a) -> bool (not (truthy (eval env a)))
    | Ast.Binop (Ast.Add, a, b) -> prim Value.add a b
    | Ast.Binop (Ast.Sub, a, b) -> prim Value.sub a b
    | Ast.Binop (Ast.Mul, a, b) -> prim Value.mul a b
    | Ast.Binop (Ast.Div, a, b) -> prim Value.div a b
    | Ast.Binop (Ast.Eq, a, b) -> bool (Row.rval_equal (eval env a) (eval env b))
    | Ast.Binop (Ast.Ne, a, b) -> bool (not (Row.rval_equal (eval env a) (eval env b)))
    | Ast.Binop (Ast.Lt, a, b) -> bool (Row.rval_compare (eval env a) (eval env b) < 0)
    | Ast.Binop (Ast.Le, a, b) -> bool (Row.rval_compare (eval env a) (eval env b) <= 0)
    | Ast.Binop (Ast.Gt, a, b) -> bool (Row.rval_compare (eval env a) (eval env b) > 0)
    | Ast.Binop (Ast.Ge, a, b) -> bool (Row.rval_compare (eval env a) (eval env b) >= 0)
    | Ast.Binop (Ast.And, a, b) ->
      let x = truthy (eval env a) in
      let y = truthy (eval env b) in
      bool (x && y)
    | Ast.Binop (Ast.Or, a, b) ->
      let x = truthy (eval env a) in
      let y = truthy (eval env b) in
      bool (x || y)
    | Ast.Agg _ | Ast.Count_star -> invalid_arg "aggregate in a non-aggregating position"

  let rec eval_agg cols members (e : Ast.expr) =
    match e with
    | Ast.Count_star -> Row.Prim (Value.Int (List.length members))
    | Ast.Agg (kind, inner) -> begin
      let values =
        List.filter (fun v -> v <> null) (List.map (fun row -> eval (lookup cols row) inner) members)
      in
      let prims () =
        List.map (function Row.Prim p -> p | _ -> invalid_arg "aggregate over a graph entity") values
      in
      let best better = function
        | [] -> null
        | first :: rest -> List.fold_left (fun acc v -> if better v acc then v else acc) first rest
      in
      match kind with
      | Ast.Count -> Row.Prim (Value.Int (List.length values))
      | Ast.Sum -> Row.Prim (List.fold_left Value.add (Value.Int 0) (prims ()))
      | Ast.Avg -> begin
        match List.filter_map Value.to_float (prims ()) with
        | [] -> null
        | fs -> Row.Prim (Value.Float (List.fold_left ( +. ) 0.0 fs /. float_of_int (List.length fs)))
      end
      | Ast.Min -> best (fun v acc -> Row.rval_compare v acc < 0) values
      | Ast.Max -> best (fun v acc -> Row.rval_compare v acc > 0) values
    end
    | Ast.Binop (op, a, b) when Ast.has_aggregate e ->
      let va = eval_agg cols members a in
      let vb = eval_agg cols members b in
      if op = Ast.And || op = Ast.Or then invalid_arg "boolean combination of aggregates";
      eval (function "a" -> va | _ -> vb) (Ast.Binop (op, Ast.Var "a", Ast.Var "b"))
    | Ast.Unop (Ast.Neg, a) when Ast.has_aggregate e ->
      eval (fun _ -> eval_agg cols members a) (Ast.Unop (Ast.Neg, Ast.Var "v"))
    | _ -> begin match members with [] -> null | row :: _ -> eval (lookup cols row) e end

  (* [sb] over the rows [(cols, rows)] of its FROM. *)
  let select (cols, rows) (sb : Ast.select_block) =
    let rows =
      match sb.s_where with
      | None -> rows
      | Some c -> List.filter (fun row -> truthy (eval (lookup cols row) c)) rows
    in
    let out_cols = Array.of_list (List.mapi Ast.item_name sb.items) in
    let project members =
      Array.of_list (List.map (fun (it : Ast.select_item) -> eval_agg cols members it.item_expr) sb.items)
    in
    let out =
      if sb.group_by = [] && not (List.exists (fun (it : Ast.select_item) -> Ast.has_aggregate it.item_expr) sb.items)
      then
        List.map
          (fun row ->
            Array.of_list
              (List.map (fun (it : Ast.select_item) -> eval (lookup cols row) it.item_expr) sb.items))
          rows
      else begin
        let groups = Hashtbl.create 16 and order = ref [] in
        if sb.group_by = [] then begin
          Hashtbl.add groups [] [];
          order := [ [] ]
        end;
        List.iter
          (fun row ->
            let key = List.map (eval (lookup cols row)) sb.group_by in
            match Hashtbl.find_opt groups key with
            | Some m -> Hashtbl.replace groups key (row :: m)
            | None ->
              Hashtbl.add groups key [ row ];
              order := key :: !order)
          rows;
        List.rev_map (fun key -> project (List.rev (Hashtbl.find groups key))) !order
      end
    in
    let out =
      if not sb.distinct then out
      else begin
        let seen = Hashtbl.create 16 in
        List.filter
          (fun row ->
            let k = Array.to_list row in
            (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
          out
      end
    in
    let out =
      if sb.order_by = [] then out
      else
        let key row = List.map (fun (e, _) -> eval (lookup out_cols row) e) sb.order_by in
        List.stable_sort
          (fun a b ->
            let rec go ka kb dirs =
              match (ka, kb, dirs) with
              | x :: ka, y :: kb, (_, dir) :: dirs ->
                let c = Row.rval_compare x y in
                if c <> 0 then (if dir = Ast.Asc then c else -c) else go ka kb dirs
              | _ -> 0
            in
            go (key a) (key b) sb.order_by)
          out
    in
    let out = match sb.limit with Some n -> List.filteri (fun i _ -> i < n) out | None -> out in
    (out_cols, out)
end

(* A seeded random Job graph carrying [x] (Int/Float), [y]
   (Int/Float/Str) and [k] (Int/Float/Str, with [Int 1] beside
   [Float 1.]) properties, each sometimes missing, and a random SELECT over [MATCH (a:Job) RETURN a.x AS x,
   a.y AS y, a.k AS k, a.y AS x, a] — the second [x] column is
   shadowed (first match wins). *)
let random_case seed =
  let module Ast = Kaskade_query.Ast in
  let rng = Kaskade_util.Prng.create seed in
  let pick a = Kaskade_util.Prng.choose rng a in
  let chance n = Kaskade_util.Prng.int rng n = 0 in
  let int a b = Kaskade_util.Prng.int_in rng a b in
  let b = Builder.create lineage_schema in
  for _ = 1 to (if chance 6 then 0 else int 1 30) do
    let opt name v = if chance 4 then [] else [ (name, v ()) ] in
    let x () = if chance 2 then Value.Int (int (-2) 3) else Value.Float (float_of_int (int (-4) 6) /. 2.0) in
    let y () = pick [| Value.Int (int 0 3); Value.Float 1.5; Value.Str (pick [| "a"; "b" |]) |] in
    let k () = pick [| Value.Int 0; Value.Int 1; Value.Str "p"; Value.Float 1.0 |] in
    ignore (Builder.add_vertex b ~vtype:"Job" ~props:(opt "x" x @ opt "y" y @ opt "k" k) ())
  done;
  let g = Graph.freeze b in
  let var v = Ast.Var v and lit n = Ast.Lit (Value.Int n) in
  (* Leaves may do arithmetic on [y], which raises on a string: such
     queries must fail on both sides, so AND/OR may not short-circuit
     past a raising operand. *)
  let rec cond depth =
    if depth = 0 || chance 3 then
      let operand = if chance 4 then Ast.Binop (Ast.Add, var "y", lit 1) else var (pick [| "x"; "y"; "k" |]) in
      Ast.Binop (pick [| Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |], operand, lit (int (-1) 2))
    else
      match int 0 2 with
      | 0 -> Ast.Binop (Ast.And, cond (depth - 1), cond (depth - 1))
      | 1 -> Ast.Binop (Ast.Or, cond (depth - 1), cond (depth - 1))
      | _ -> Ast.Unop (Ast.Not, cond (depth - 1))
  in
  let group_by = match int 0 2 with 0 -> [] | 1 -> [ var (pick [| "k"; "x" |]) ] | _ -> [ var "k"; var "x" ] in
  let aggregates =
    [| Ast.Count_star; Ast.Agg (Ast.Count, var "y"); Ast.Agg (Ast.Sum, var "x"); Ast.Agg (Ast.Avg, var "y");
       Ast.Agg (Ast.Avg, var "x"); Ast.Agg (Ast.Min, var "y"); Ast.Agg (Ast.Max, var "y");
       Ast.Binop (Ast.Div, Ast.Agg (Ast.Sum, var "x"), Ast.Count_star);
       Ast.Binop (Ast.Add, Ast.Agg (Ast.Max, var "x"), lit 1); Ast.Unop (Ast.Neg, Ast.Agg (Ast.Min, var "x"));
       var "y" (* non-key: read on the group's first row *) |]
  in
  let grouped = group_by <> [] || chance 3 in
  let exprs =
    if grouped then group_by @ List.init (int 1 3) (fun _ -> pick aggregates)
    else List.init (int 1 3) (fun _ -> pick [| var "x"; var "y"; var "k"; var "a"; Ast.Binop (Ast.Add, var "x", lit 1) |])
  in
  let items =
    List.map (fun e -> { Ast.item_expr = e; alias = (if chance 3 then Some (pick [| "x"; "c" |]) else None) }) exprs
  in
  let out_names = List.mapi Ast.item_name items in
  let sb =
    {
      Ast.distinct = chance 3;
      items;
      from =
        Ast.From_match
          {
            Ast.patterns = [ { Ast.p_start = { Ast.n_var = Some "a"; n_label = Some "Job" }; p_steps = [] } ];
            m_where = None;
            returns =
              List.map
                (fun (e, alias) -> { Ast.item_expr = e; alias = Some alias })
                [ (Ast.Prop ("a", "x"), "x"); (Ast.Prop ("a", "y"), "y"); (Ast.Prop ("a", "k"), "k");
                  (Ast.Prop ("a", "y"), "x"); (var "a", "a") ];
          };
      s_where = (if chance 2 then Some (cond 3) else None);
      group_by;
      order_by =
        List.init (int 0 2) (fun _ -> (var (pick (Array.of_list ("x" :: out_names))), pick [| Ast.Asc; Ast.Desc |]));
      limit = (if chance 3 then Some (int 0 5) else None);
    }
  in
  let source =
    let rows =
      Array.to_list
        (Array.map
           (fun v ->
             let p name = Row.Prim (Graph.vprop_or_null g v name) in
             [| p "x"; p "y"; p "k"; p "y"; Row.V v |])
           (Graph.vertices_of_type_name g "Job"))
    in
    ([| "x"; "y"; "k"; "x"; "a" |], rows)
  in
  (g, sb, source)

let prop_pipeline_matches_reference =
  QCheck.Test.make ~name:"compiled pipeline = list-based reference" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, sb, source = random_case seed in
      let outcome f = match f () with r -> Ok r | exception Invalid_argument _ -> Error () in
      let compiled =
        outcome (fun () ->
            let t = Executor.table_exn (Executor.run (Executor.create g) (Kaskade_query.Ast.Select sb)) in
            (t.Row.cols, t.Row.rows))
      in
      let expected = outcome (fun () -> Reference.select source sb) in
      if compiled <> expected then
        QCheck.Test.fail_reportf "seed %d: %s" seed
          (Kaskade_query.Pretty.to_string (Kaskade_query.Ast.Select sb));
      true)

let () =
  Alcotest.run "kaskade_exec"
    [
      ( "match",
        [
          Alcotest.test_case "scan by label" `Quick test_scan_by_label;
          Alcotest.test_case "scan all" `Quick test_scan_all;
          Alcotest.test_case "single expand" `Quick test_single_edge_expand;
          Alcotest.test_case "backward edge" `Quick test_backward_edge;
          Alcotest.test_case "two-hop chain" `Quick test_two_hop_chain;
          Alcotest.test_case "shared-var join" `Quick test_shared_var_join;
          Alcotest.test_case "unknown label rejected" `Quick test_unknown_label_rejected;
          Alcotest.test_case "edge var binding" `Quick test_edge_var_binding;
        ] );
      ( "var_length",
        [
          Alcotest.test_case "distinct endpoints" `Quick test_var_length_distinct;
          Alcotest.test_case "zero lower bound" `Quick test_var_length_zero_lo;
          Alcotest.test_case "trail multiplicity" `Quick test_var_length_trails_multiplicity;
          Alcotest.test_case "modes agree on sets" `Quick test_var_length_modes_agree_on_sets;
          Alcotest.test_case "cycle self-pair" `Quick test_var_length_cycle_self_pair;
          Alcotest.test_case "lo=2 walk semantics" `Quick test_var_length_lo2_walk_semantics;
          Alcotest.test_case "edge-type filter" `Quick test_var_length_etype_filter;
          QCheck_alcotest.to_alcotest prop_var_length_matches_reference;
          QCheck_alcotest.to_alcotest prop_var_length_trails_matches_reference;
        ] );
      ( "relational",
        [
          Alcotest.test_case "where on vertex prop" `Quick test_where_on_vertex_prop;
          Alcotest.test_case "projection" `Quick test_projection_props;
          Alcotest.test_case "count(*)" `Quick test_count_star;
          Alcotest.test_case "group by + aggregates" `Quick test_group_by_aggregates;
          Alcotest.test_case "avg" `Quick test_avg;
          Alcotest.test_case "nested select" `Quick test_nested_select;
          Alcotest.test_case "outer where" `Quick test_select_where;
          Alcotest.test_case "group by vertex" `Quick test_group_by_vertex;
          Alcotest.test_case "listing 1 end-to-end" `Quick test_listing1_full;
          Alcotest.test_case "order by / limit" `Quick test_order_by_limit;
          Alcotest.test_case "order by aggregate alias" `Quick test_order_by_aggregate_alias;
          Alcotest.test_case "index probe" `Quick test_index_probe_scan;
          Alcotest.test_case "select distinct" `Quick test_select_distinct;
          QCheck_alcotest.to_alcotest prop_index_probe_equivalent;
          Alcotest.test_case "index probe numeric equality" `Quick test_index_probe_numeric_equality;
          Alcotest.test_case "avg skips non-numeric" `Quick test_avg_skips_non_numeric;
          Alcotest.test_case "table iv golden" `Quick test_table_iv_golden;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |])
            prop_pipeline_matches_reference;
        ] );
      ( "call",
        [
          Alcotest.test_case "label propagation" `Quick test_call_label_propagation;
          Alcotest.test_case "largest community" `Quick test_call_largest_community;
          Alcotest.test_case "largest requires LP" `Quick test_call_largest_requires_lp;
          Alcotest.test_case "unknown procedure" `Quick test_call_unknown_proc;
        ] );
      ( "planner",
        [
          Alcotest.test_case "anchor choice" `Quick test_planner_anchor_choice;
          Alcotest.test_case "bound variable wins" `Quick test_planner_bound_var_wins;
          Alcotest.test_case "results preserved" `Quick test_planner_preserves_results;
          QCheck_alcotest.to_alcotest prop_planner_equivalent;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "null comparisons" `Quick test_null_propagation;
          Alcotest.test_case "missing prop is null" `Quick test_missing_prop_projects_null;
          Alcotest.test_case "empty aggregate group" `Quick test_avg_of_empty_group;
          Alcotest.test_case "sum skips nulls" `Quick test_sum_skips_nulls;
          Alcotest.test_case "count vs count(*)" `Quick test_count_vs_count_star;
          Alcotest.test_case "string predicates" `Quick test_string_predicates;
          Alcotest.test_case "arithmetic projection" `Quick test_arithmetic_in_projection;
          Alcotest.test_case "triple nesting" `Quick test_triple_nested_select;
          Alcotest.test_case "repeated variable" `Quick test_self_join_same_var;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "unbounded var-length" `Quick test_var_length_unbounded;
        ] );
      ( "parallel_scan",
        [
          Alcotest.test_case "matches sequential rows and order" `Quick
            test_parallel_scan_matches_sequential;
          Alcotest.test_case "budget exhaustion mid-morsel" `Quick
            test_parallel_scan_budget_exhaustion;
        ] );
      ( "cost",
        [
          Alcotest.test_case "monotone in path length" `Quick test_cost_monotone_in_path_length;
          Alcotest.test_case "var-length growth" `Quick test_cost_var_length_grows;
          Alcotest.test_case "deg override" `Quick test_cost_deg_override;
          Alcotest.test_case "typed scan cheaper" `Quick test_cost_scan_label_cheaper;
        ] );
    ]
