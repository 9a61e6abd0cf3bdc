(** On-demand hash indexes over vertex properties — the "scans from
    indexes" access path in the paper's description of Neo4j's
    optimizer (§V-A). An index for a property is built lazily on its
    first probe (one O(V) pass) and reused afterwards; the executor
    probes it for patterns anchored by an equality predicate, e.g.
    [MATCH (j:Job) WHERE j.name = 'job_17' ...]. *)

type t

val create : Graph.t -> t
(** No indexes are built yet. *)

val lookup : t -> prop:string -> Value.t -> int list
(** Vertex ids whose [prop] equals the value under [Value.equal] —
    so an [Int] probe finds integral [Float] values and vice versa —
    (any vertex type; callers filter by label). Builds the index on
    first use. Ascending id order. *)

val indexed_props : t -> string list
(** Properties indexed so far (sorted). *)

val build_count : t -> int
(** How many index builds happened (observability/tests). *)
