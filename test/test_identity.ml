(* Representation identity: a graph restored from its persisted forms
   — the binary snapshot encoding ([Codec], which rebuilds the CSR
   straight from the raw arrays through [Graph.of_arrays]) and the text
   format ([Gio], which rebuilds it through [Builder]) — must be
   observationally identical to the frozen CSR it was saved from: same
   query bytes, same statistics, same components, same adjacency, same
   typed segments. Checked across generators with very different
   shapes. *)

open Kaskade_graph
module Exec = Kaskade_exec.Executor
module Row = Kaskade_exec.Row
module Codec = Kaskade_store.Codec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Three shapes: heterogeneous DAG-ish provenance, bipartite-flavored
   dblp, and a skewed homogeneous power-law graph. *)
let generators =
  [ ( "prov",
      lazy Kaskade_gen.Provenance_gen.(generate { default with jobs = 220; files = 400; seed = 9 })
    );
    ("dblp", lazy Kaskade_gen.Dblp_gen.(generate (scaled ~edges:2_500 ~seed:5)));
    ("soc", lazy Kaskade_gen.Powerlaw_gen.(generate (scaled ~edges:2_500 ~seed:5))) ]

let restorations =
  [ ( "snapshot",
      fun g ->
        let buf = Buffer.create 4096 in
        Codec.add_graph buf g;
        Codec.graph (Codec.reader ~file:"<memory>" (Buffer.contents buf)) );
    ("text", fun g -> Gio.of_string (Gio.to_string g)) ]

let each_config f =
  List.iter
    (fun (gname, g) ->
      let g = Lazy.force g in
      List.iter
        (fun (rname, restore) -> f ~label:(Printf.sprintf "%s via %s" gname rname) g (restore g))
        restorations)
    generators

(* Schema-generic workload: a typed one-hop over the first edge type
   plus typed/untyped variable-length expansions from the first vertex
   type — the executor shapes (scan, typed expand, BFS endpoints) that
   read adjacency hardest. *)
let workload_for g =
  let schema = Graph.schema g in
  let vt = Schema.vertex_type_name schema 0 in
  let et = Schema.edge_type_name schema 0 in
  [ Printf.sprintf "MATCH (a:%s)-[:%s]->(b) RETURN a, b" (Schema.vertex_type_name schema (Schema.edge_src schema 0)) et;
    Printf.sprintf "MATCH (a:%s)-[r*1..3]->(b) RETURN a, b" vt;
    Printf.sprintf "MATCH (a:%s)<-[r*1..2]-(b) RETURN a, b" vt ]

let result_bytes g = function
  | Exec.Affected n -> Printf.sprintf "affected %d" n
  | Exec.Table t ->
    let buf = Buffer.create 4096 in
    Array.iter (fun c -> Buffer.add_string buf c; Buffer.add_char buf '\t') t.Row.cols;
    List.iter
      (fun row ->
        Buffer.add_char buf '\n';
        Array.iter
          (fun v ->
            Buffer.add_string buf (Row.rval_to_string g v);
            Buffer.add_char buf '\t')
          row)
      t.Row.rows;
    Buffer.contents buf

let test_query_identity () =
  each_config (fun ~label g back ->
      let run g q = result_bytes g (Exec.run_string (Exec.create g) q) in
      List.iter
        (fun q -> Alcotest.(check string) (label ^ ": " ^ q) (run g q) (run back q))
        (workload_for g))

let test_adjacency_equivalence () =
  each_config (fun ~label g back ->
      let n = Graph.n_vertices g in
      check_int (label ^ ": n_vertices") n (Graph.n_vertices back);
      check_int (label ^ ": n_edges") (Graph.n_edges g) (Graph.n_edges back);
      let collect g v =
        let acc = ref [] in
        Graph.iter_out g v (fun ~dst ~etype ~eid -> acc := (dst, etype, eid) :: !acc);
        Graph.iter_in g v (fun ~src ~etype ~eid -> acc := (src, -etype - 1, eid) :: !acc);
        List.rev !acc
      in
      for v = 0 to n - 1 do
        if collect g v <> collect back v then
          Alcotest.failf "%s: adjacency of vertex %d differs" label v
      done;
      (* Typed runs too, on a sample of vertices x every edge type. *)
      let nets = Schema.n_edge_types (Graph.schema g) in
      let typed g v ety =
        let acc = ref [] in
        Graph.iter_out_etype g v ~etype:ety (fun ~dst ~eid -> acc := (dst, eid) :: !acc);
        Graph.iter_in_etype g v ~etype:ety (fun ~src ~eid -> acc := (src, eid) :: !acc);
        !acc
      in
      let step = Stdlib.max 1 (n / 64) in
      let v = ref 0 in
      while !v < n do
        for ety = 0 to nets - 1 do
          if typed g !v ety <> typed back !v ety then
            Alcotest.failf "%s: typed adjacency of vertex %d differs" label !v
        done;
        v := !v + step
      done;
      (* Scan candidates must be the same physical order (vids
         ascending) — what keeps executor result bytes identical. *)
      for ty = 0 to Schema.n_vertex_types (Graph.schema g) - 1 do
        if Graph.vertices_of_type g ty <> Graph.vertices_of_type back ty then
          Alcotest.failf "%s: scan candidates differ for vertex type %d" label ty
      done)

let test_gstats_equal () =
  each_config (fun ~label g back ->
      check_bool (label ^ ": Gstats.compute equal") true (Gstats.compute g = Gstats.compute back))

(* Union-find roots are representation; the partition is the
   contract. Compare first-occurrence-normalized component labels. *)
let canonical_labels uf n =
  let seen = Hashtbl.create 16 in
  Array.init n (fun v ->
      let r = Kaskade_util.Union_find.find uf v in
      match Hashtbl.find_opt seen r with
      | Some c -> c
      | None ->
        let c = Hashtbl.length seen in
        Hashtbl.add seen r c;
        c)

let test_connectivity_equal () =
  each_config (fun ~label g back ->
      let n = Graph.n_vertices g in
      let a = canonical_labels (Kaskade_algo.Connectivity.components g) n in
      let b = canonical_labels (Kaskade_algo.Connectivity.components back) n in
      check_bool (label ^ ": components equal") true (a = b))

let test_traverse_equal () =
  each_config (fun ~label g back ->
      let n = Graph.n_vertices g in
      let sources = List.init 8 (fun i -> i * Stdlib.max 1 (n / 8)) in
      List.iter
        (fun src ->
          List.iter
            (fun dir ->
              let reach g = Kaskade_algo.Traverse.reachable_within g ~src ~max_hops:3 ~dir () in
              if reach g <> reach back then
                Alcotest.failf "%s: reachable_within differs from src %d" label src)
            [ Kaskade_algo.Traverse.Out; Kaskade_algo.Traverse.In ])
        sources)

(* A typed scan — each source vertex's segment for one edge type —
   must produce exactly the rows (and destination checksum) of
   filter-scanning every vertex's untyped adjacency, on the original
   CSR and on the restored one. *)
let test_typed_scan_invariant () =
  each_config (fun ~label g back ->
      let schema = Graph.schema g in
      for ety = 0 to Schema.n_edge_types schema - 1 do
        let typed g =
          let rows = ref 0 and sum = ref 0 in
          Array.iter
            (fun v ->
              Graph.iter_out_etype g v ~etype:ety (fun ~dst ~eid:_ ->
                  Stdlib.incr rows;
                  sum := (!sum + dst) land max_int))
            (Graph.vertices_of_type g (Schema.edge_src schema ety));
          (!rows, !sum)
        in
        let filtered = ref 0 and fsum = ref 0 in
        for v = 0 to Graph.n_vertices g - 1 do
          Graph.iter_out g v (fun ~dst ~etype ~eid:_ ->
              if etype = ety then begin
                Stdlib.incr filtered;
                fsum := (!fsum + dst) land max_int
              end)
        done;
        let rows, sum = typed g and brows, bsum = typed back in
        check_int (Printf.sprintf "%s: typed scan rows etype=%d" label ety) !filtered rows;
        check_int (Printf.sprintf "%s: typed scan checksum etype=%d" label ety) !fsum sum;
        check_int (Printf.sprintf "%s: restored typed scan rows etype=%d" label ety) rows brows;
        check_int (Printf.sprintf "%s: restored typed scan checksum etype=%d" label ety) sum bsum
      done)

(* The on-disk forms: every generator graph saved to a file and
   loaded back — text through [Gio.save]/[Gio.load], binary through
   [Snapshot.write]/[Snapshot.read] — keeps its vertex types, props
   and adjacency relation. Eids may be renumbered by file order, so
   adjacency is compared as sorted (dst, etype) pairs. *)
let test_save_load_round_trip () =
  let tmp = Filename.temp_file "kaskade_identity" ".kg" in
  let formats =
    [ ("text", fun g -> Gio.save g tmp; Gio.load tmp);
      ( "snapshot",
        fun g ->
          Kaskade_store.Snapshot.write tmp ~seq:0 ~graph:g ~views:[];
          (Kaskade_store.Snapshot.read tmp).Kaskade_store.Snapshot.graph ) ]
  in
  List.iter
    (fun (gname, g) ->
      let g = Lazy.force g in
      List.iter
        (fun (fname, round_trip) ->
          let back = round_trip g in
          let label = Printf.sprintf "%s via %s file" gname fname in
          check_int (label ^ ": vertices") (Graph.n_vertices g) (Graph.n_vertices back);
          check_int (label ^ ": edges") (Graph.n_edges g) (Graph.n_edges back);
          for v = 0 to Graph.n_vertices back - 1 do
            check_int (label ^ ": vertex type") (Graph.vertex_type g v) (Graph.vertex_type back v);
            let out g =
              let acc = ref [] in
              Graph.iter_out g v (fun ~dst ~etype ~eid:_ -> acc := (dst, etype) :: !acc);
              List.sort compare !acc
            in
            if out g <> out back then
              Alcotest.failf "%s: out-adjacency of vertex %d differs after round-trip" label v;
            if Graph.vertex_props g v <> Graph.vertex_props back v then
              Alcotest.failf "%s: vertex %d props differ after round-trip" label v
          done)
        formats)
    generators;
  Sys.remove tmp

let () =
  Alcotest.run "kaskade_identity"
    [
      ( "identity",
        [
          Alcotest.test_case "query results byte-identical" `Quick test_query_identity;
          Alcotest.test_case "adjacency equivalence" `Quick test_adjacency_equivalence;
          Alcotest.test_case "gstats equal" `Quick test_gstats_equal;
          Alcotest.test_case "connectivity equal" `Quick test_connectivity_equal;
          Alcotest.test_case "traverse equal" `Quick test_traverse_equal;
          Alcotest.test_case "typed_scan invariant" `Quick test_typed_scan_invariant;
        ] );
      ( "persistence",
        [ Alcotest.test_case "save/load round-trip" `Quick test_save_load_round_trip ] );
    ]
