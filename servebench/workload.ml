(* The benchmark's inputs: one seeded provenance graph, the Table IV
   lineage shapes the views are selected for, and the per-workload
   request streams and writer batches. Everything a run sends is a
   pure function of the workload seed, so the served run, the traced
   run and the oracle all see the same inputs. *)

module Graph = Kaskade_graph.Graph
module Prng = Kaskade_util.Prng
module Update = Kaskade.Update

type kind = Lineage | Lookup | Ingest

let kinds = [ Lineage; Lookup; Ingest ]
let name = function Lineage -> "lineage" | Lookup -> "lookup" | Ingest -> "ingest"

let of_name s =
  match List.find_opt (fun k -> name k = s) kinds with
  | Some k -> k
  | None -> Common.fail "unknown workload %S (expected lineage, lookup or ingest)" s

(* [ingest] alone runs a durable store: WAL with the default [Always]
   fsync policy, on both the server and the traced run. *)
let durable = function Ingest -> true | Lineage | Lookup -> false

(* The dataset is fixed (its own seed, like every bench dataset), so
   runs with different workload seeds differ only in the request
   stream and the writer's batches: about 20k vertices and 38k edges. *)
let prov = { Kaskade_gen.Provenance_gen.default with jobs = 4_000; files = 8_000; seed = 42 }
let generate () = Kaskade_gen.Provenance_gen.generate prov

(* Table IV Q1-Q4, anchored on one pipeline. *)
let lineage_text ~shape ~pipeline =
  let p = Printf.sprintf "pipeline_%d" pipeline in
  match shape with
  | 0 ->
    Printf.sprintf
      "SELECT A.pipelineName, AVG(T_CPU) FROM (SELECT A, SUM(B.CPU) AS T_CPU FROM (MATCH \
       (q_j1:Job)-[:WRITES_TO]->(q_f1:File) (q_f1:File)-[r*0..8]->(q_f2:File) \
       (q_f2:File)-[:IS_READ_BY]->(q_j2:Job) WHERE q_j1.pipelineName = '%s' RETURN q_j1 as A, \
       q_j2 as B) GROUP BY A, B) GROUP BY A.pipelineName"
      p
  | 1 ->
    Printf.sprintf
      "MATCH (s:Job)<-[r*1..4]-(anc:Job) WHERE s.pipelineName = '%s' RETURN s, anc" p
  | 2 ->
    Printf.sprintf
      "MATCH (s:Job)-[r*1..4]->(desc:Job) WHERE s.pipelineName = '%s' RETURN s, desc" p
  | _ ->
    Printf.sprintf
      "SELECT s, n, MAX(r) FROM (MATCH (s:Job)-[r*1..4]->(n) WHERE s.pipelineName = '%s' \
       RETURN s, n, r) GROUP BY s, n"
      p

let lineage_shapes = 4
let lineage_texts =
  Array.init (lineage_shapes * prov.pipelines) (fun i ->
      lineage_text ~shape:(i mod lineage_shapes) ~pipeline:(i / lineage_shapes))

(* What view selection is asked to serve: the four shapes. *)
let view_queries () =
  List.init lineage_shapes (fun shape -> Kaskade.parse (lineage_text ~shape ~pipeline:0))

(* One-hop point lookups on a job: its tasks, and the files it read
   (the IS_READ_BY mirror). No selected view answers either: [Task] is
   in no view, and the rewriter does not map the mirror onto the
   Job/File filter view — which does answer the forward WRITES_TO
   lookup, so that one is left out. *)
let lookup_text ~job ~tasks =
  if tasks then
    Printf.sprintf "MATCH (s:Job)-[:HAS_TASK]->(t:Task) WHERE s.name = 'job_%d' RETURN t.name" job
  else
    Printf.sprintf "MATCH (f:File)-[:IS_READ_BY]->(s:Job) WHERE s.name = 'job_%d' RETURN f.path" job

(* The read stream. Lineage texts come in seeded permutations of all
   80 texts, so every text is equally frequent in any window of 80
   requests and a run's latency mix does not depend on sampling luck;
   lookups draw a seeded job and shape per request. *)
type stream = { next : unit -> string }

let stream kind ~seed =
  let rng = Prng.create (seed * 7919 + 17) in
  match kind with
  | Lineage | Ingest ->
    let block = Array.copy lineage_texts in
    let pos = ref (Array.length block) in
    {
      next =
        (fun () ->
          if !pos = Array.length block then begin
            Prng.shuffle rng block;
            pos := 0
          end;
          let t = block.(!pos) in
          incr pos;
          t);
    }
  | Lookup ->
    { next = (fun () -> lookup_text ~job:(Prng.int rng prov.jobs) ~tasks:(Prng.bool rng)) }

(* Writer batches: each inserts a parallel copy of one seeded
   WRITES_TO and one seeded IS_READ_BY edge and, once a few copies are
   live, deletes the two oldest it inserted. Every op is effective (the
   expected [applied] count is the batch length) and stales both views,
   but reachability never changes, so read costs do not drift with the
   seed the way random new lineage shortcuts would make them. *)
type batches = { next_batch : unit -> Update.op list }

let batches (g : Graph.t) ~seed =
  let rng = Prng.create (seed * 104729 + 3) in
  let edges name =
    let l = ref [] in
    Graph.iter_edges g (fun ~eid:_ ~src ~dst ~etype ->
        if Kaskade_graph.Schema.edge_type_name (Graph.schema g) etype = name then
          l := (src, dst, name) :: !l);
    Array.of_list (List.rev !l)
  in
  let writes = edges "WRITES_TO" and reads = edges "IS_READ_BY" in
  let live = Queue.create () in
  {
    next_batch =
      (fun () ->
        let w = Prng.choose rng writes and r = Prng.choose rng reads in
        let deletes =
          if Queue.length live >= 4 then
            List.init 2 (fun _ ->
                let src, dst, etype = Queue.pop live in
                Update.Delete_edge { src; dst; etype })
          else []
        in
        Queue.push w live;
        Queue.push r live;
        let insert (src, dst, etype) = Update.Insert_edge { src; dst; etype; props = [] } in
        [ insert w; insert r ] @ deletes);
  }

let op_spec = function
  | Update.Insert_edge { src; dst; etype; _ } -> Printf.sprintf "insert-edge:%d:%d:%s" src dst etype
  | Update.Delete_edge { src; dst; etype } -> Printf.sprintf "delete-edge:%d:%d:%s" src dst etype
  | Update.Insert_vertex { vtype; _ } -> "insert-vertex:" ^ vtype

let update_line ops = "UPDATE " ^ String.concat ";" (List.map op_spec ops)

(* Batches per second the open-loop writer is due to send: beside the
   reader on [ingest]; alone, in a trailing phase once the reads are
   done, on [lineage] and [lookup] — faster there, for enough samples
   in a short phase. Why 2/s on [ingest]: see "Known behaviour" in
   LAYERS.md. *)
let write_rate = function Ingest -> 2.0 | Lineage | Lookup -> 200.0
