open Kaskade_graph
open Kaskade_query
module Explain = Kaskade_obs.Explain
module Metrics = Kaskade_obs.Metrics
module Trace = Kaskade_obs.Trace
module Scratch = Kaskade_util.Scratch
module Int_vec = Kaskade_util.Int_vec
module Budget = Kaskade_util.Budget

(* Process-wide execution metrics (see docs/OBSERVABILITY.md). The
   instruments are resolved once here; updates are single field
   mutations, cheap enough for the BFS inner loop. *)
let m_queries_run = Metrics.counter ~help:"Queries executed" "executor.queries_run"
let m_rows_produced = Metrics.counter ~help:"Result rows returned" "executor.rows_produced"

let m_expand_steps =
  Metrics.counter ~help:"Frontier vertex expansions during variable-length traversal"
    "executor.expand_steps"

(* Unbound start scans below this many candidate vertices stay
   sequential: a fan-out that cannot amortize its domain spawns over
   real per-candidate work only adds latency. *)
let parallel_scan_threshold = 2048

type mode = Distinct_endpoints | All_trails

(* A context either owns a frozen graph for good, or reads through a
   [Graph.Overlay]. Live contexts re-derive their graph snapshot (and
   drop derived caches) whenever the overlay's version moved — queries
   always observe the latest batch without callers rebuilding
   contexts. *)
type source = Frozen | Live of Graph.Overlay.t

type ctx = {
  source : source;
  mode : mode;
  planner : bool;
  pool : Kaskade_util.Pool.t option;
  mutable cache_version : int;
  mutable g : Graph.t;
  mutable stats : Gstats.t Lazy.t;
  mutable indexes : Vindex.t Lazy.t;
  mutable communities : int array option;
}

type result = Table of Row.table | Affected of int

let make ~source ~mode ~planner ~pool ~version g =
  {
    source;
    mode;
    planner;
    pool;
    cache_version = version;
    g;
    stats = lazy (Gstats.compute ?pool g);
    indexes = lazy (Vindex.create g);
    communities = None;
  }

let create ?(mode = Distinct_endpoints) ?(planner = false) ?pool g =
  make ~source:Frozen ~mode ~planner ~pool ~version:0 g

let create_live ?(mode = Distinct_endpoints) ?(planner = false) ?pool o =
  make ~source:(Live o) ~mode ~planner ~pool ~version:(Graph.Overlay.version o)
    (Graph.Overlay.graph o)

(* Called at every public entry point. Snapshotting is cheap when the
   overlay is clean (its cached graph is reused); statistics and
   property indexes stay lazy, so a pure update/read workload never
   pays for them. Community labels are positional and die with the
   old snapshot. *)
let sync ctx =
  match ctx.source with
  | Frozen -> ()
  | Live o ->
    let v = Graph.Overlay.version o in
    if v <> ctx.cache_version then begin
      let g = Graph.Overlay.graph o in
      let pool = ctx.pool in
      ctx.cache_version <- v;
      ctx.g <- g;
      ctx.stats <- lazy (Gstats.compute ?pool g);
      ctx.indexes <- lazy (Vindex.create g);
      ctx.communities <- None
    end

let graph ctx =
  sync ctx;
  ctx.g

let mode ctx = ctx.mode

let communities ctx =
  sync ctx;
  ctx.communities

let table_exn = function
  | Table t -> t
  | Affected _ -> invalid_arg "Executor.table_exn: result is not a table"

(* Unbound slot sentinel; also the value of a name a block does not
   bind and of a missing property. *)
let unbound = Row.Prim Value.Null

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                                *)

(* Expressions are compiled once per MATCH/SELECT block against the
   block's row layout: a variable becomes a slot read and a property
   reference resolves its column once, so evaluating a row does no
   name lookup. Conditions compile to [bool] readers, so comparisons
   and boolean connectives box nothing per row. Both operands of
   AND/OR are always evaluated: a row raises whenever either does. *)

type row = Row.rval array

let truthy = function Row.Prim v -> Value.is_truthy v | Row.V _ | Row.E _ -> true
let vbool b = Row.Prim (Value.Bool b)

let negate = function
  | Row.Prim (Value.Int n) -> Row.Prim (Value.Int (-n))
  | Row.Prim (Value.Float f) -> Row.Prim (Value.Float (-.f))
  | Row.Prim (Value.Null | Value.Bool _ | Value.Str _) | Row.V _ | Row.E _ -> unbound

let arith op =
  let f =
    match op with
    | Ast.Add -> Value.add
    | Ast.Sub -> Value.sub
    | Ast.Mul -> Value.mul
    | Ast.Div -> Value.div
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
      invalid_arg "Executor.arith"
  in
  fun va vb ->
    match (va, vb) with
    | Row.Prim x, Row.Prim y -> Row.Prim (f x y)
    | _ -> invalid_arg "Executor: arithmetic on a graph entity"

let ordering = function
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Ge -> fun c -> c >= 0
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
    invalid_arg "Executor.ordering"

let rec compile g resolve (e : Ast.expr) : row -> Row.rval =
  match e with
  | Ast.Var v -> begin
    match resolve v with Some i -> fun row -> row.(i) | None -> fun _ -> unbound
  end
  | Ast.Prop (v, p) -> begin
    match resolve v with
    | None -> fun _ -> unbound
    | Some i ->
      let vcol = Graph.vprop_column g p and ecol = Graph.eprop_column g p in
      fun row ->
        match row.(i) with
        | Row.V x -> Row.Prim (vcol x)
        | Row.E x -> Row.Prim (ecol x)
        | Row.Prim _ -> unbound
  end
  | Ast.Lit v ->
    let c = Row.Prim v in
    fun _ -> c
  | Ast.Unop (Ast.Neg, a) ->
    let f = compile g resolve a in
    fun row -> negate (f row)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b) ->
    let f = arith op and fa = compile g resolve a and fb = compile g resolve b in
    fun row ->
      let x = fa row in
      f x (fb row)
  | Ast.Unop (Ast.Not, _) | Ast.Binop _ ->
    let p = compile_pred g resolve e in
    fun row -> vbool (p row)
  | Ast.Agg _ | Ast.Count_star ->
    fun _ -> invalid_arg "Executor: aggregate in a non-aggregating position"

(* [e] as a condition: [truthy] of its value. *)
and compile_pred g resolve (e : Ast.expr) : row -> bool =
  match e with
  | Ast.Binop (((Ast.Eq | Ast.Ne) as op), a, b) ->
    let fa = compile g resolve a and fb = compile g resolve b in
    let eq row =
      let x = fa row in
      Row.rval_equal x (fb row)
    in
    if op = Ast.Eq then eq else fun row -> not (eq row)
  | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) ->
    let test = ordering op and fa = compile g resolve a and fb = compile g resolve b in
    fun row ->
      let x = fa row in
      test (Row.rval_compare x (fb row))
  | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
    let pa = compile_pred g resolve a and pb = compile_pred g resolve b in
    if op = Ast.And then fun row ->
      let x = pa row in
      let y = pb row in
      x && y
    else fun row ->
      let x = pa row in
      let y = pb row in
      x || y
  | Ast.Unop (Ast.Not, a) ->
    let p = compile_pred g resolve a in
    fun row -> not (p row)
  | _ ->
    let f = compile g resolve e in
    fun row -> truthy (f row)

(* A fresh array of each compiled column read on [row]. *)
let project (fs : (row -> Row.rval) array) (row : row) =
  let n = Array.length fs in
  if n = 0 then [||]
  else begin
    let out = Array.make n (fs.(0) row) in
    for k = 1 to n - 1 do
      out.(k) <- fs.(k) row
    done;
    out
  end

let compile_items g resolve (items : Ast.select_item list) =
  Array.of_list (List.map (fun (it : Ast.select_item) -> compile g resolve it.item_expr) items)

(* Distinct key rows (GROUP BY keys, DISTINCT rows): payloads
   numbered 0, 1, .. in first-insertion order, each carrying its key
   ([key_of]), found through an open-addressing table of int slots.
   Keys are compared structurally — the equality of the polymorphic
   [Hashtbl] that grouping and DISTINCT always used — so [Int 1] and
   [Float 1.] are distinct keys while NaN matches NaN and [-0.]
   matches [0.].

   Nothing here is a large per-query block: the slot table is an
   [Int_vec] borrowed from the domain-local scratch pool (reused
   across queries), and payloads live in small fixed-size pages. A
   large array allocated per query stays resident until the major GC
   sweeps it, which showed up as server RSS. *)
module Key_index = struct
  let page = 128

  type 'a t = {
    key_of : 'a -> row;
    slots : Int_vec.t;  (** 0 = empty, else id + 1; power-of-two length. *)
    mutable pages : 'a array array;  (** Id [i] at [.(i / page).(i mod page)]. *)
    mutable size : int;
  }

  let size t = t.size
  let value t id = t.pages.(id / page).(id mod page)

  let same_value (a : Value.t) (b : Value.t) =
    match (a, b) with
    | Value.Int x, Value.Int y -> x = y
    | Value.Float x, Value.Float y -> Float.compare x y = 0
    | Value.Str x, Value.Str y -> String.equal x y
    | Value.Bool x, Value.Bool y -> x = y
    | Value.Null, Value.Null -> true
    | _ -> false

  let same (a : Row.rval) (b : Row.rval) =
    match (a, b) with
    | Row.V x, Row.V y | Row.E x, Row.E y -> x = y
    | Row.Prim x, Row.Prim y -> same_value x y
    | _ -> false

  let same_row a b =
    let n = Array.length a in
    let rec go i = i = n || (same a.(i) b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  (* [Hashtbl.hash] normalizes NaN and [-0.], as [same_value] needs. *)
  let hash_one = function
    | Row.V x -> x
    | Row.E x -> x lxor 0x5bd1e995
    | Row.Prim (Value.Int x) -> x lxor 0x2c1b3c6d
    | Row.Prim v -> Hashtbl.hash v

  let hash key =
    Array.fold_left
      (fun h x ->
        let h = (h + hash_one x) * 0x3243F6A8885A308D in
        h lxor (h lsr 29))
      0 key

  let empty_slots slots n =
    Int_vec.clear slots;
    for _ = 1 to n do
      Int_vec.push slots 0
    done

  (* [with_index key_of f] runs [f] on an empty index. *)
  let with_index key_of f =
    Scratch.with_vec @@ fun slots ->
    empty_slots slots 64;
    f { key_of; slots; pages = [||]; size = 0 }

  let rec probe t key i =
    let s = Int_vec.get t.slots i in
    if s = 0 then -1
    else if same_row (t.key_of (value t (s - 1))) key then s - 1
    else probe t key ((i + 1) land (Int_vec.length t.slots - 1))

  (* Id of [key] (hash [h]), or -1. *)
  let find t h key = probe t key (h land (Int_vec.length t.slots - 1))

  let rec place slots id i =
    if Int_vec.get slots i = 0 then Int_vec.set slots i (id + 1)
    else place slots id ((i + 1) land (Int_vec.length slots - 1))

  (* Register [v], whose key (hash [h]) is absent, under the next id. *)
  let add t h v =
    let id = t.size in
    if id mod page = 0 then t.pages <- Array.append t.pages [| Array.make page v |]
    else t.pages.(id / page).(id mod page) <- v;
    t.size <- id + 1;
    let width = Int_vec.length t.slots in
    if 2 * t.size > width then begin
      empty_slots t.slots (2 * width);
      for i = 0 to id do
        place t.slots i (hash (t.key_of (value t i)) land ((2 * width) - 1))
      done
    end
    else place t.slots id (h land (width - 1));
    id
end

(* ------------------------------------------------------------------ *)
(* Streaming aggregation                                               *)

(* One running aggregate of one group. [n] counts what the aggregate
   has consumed (non-null values for COUNT and MIN/MAX, numeric ones
   for AVG); SUM folds into [total] from [Int 0]; MIN/MAX keep [best],
   replaced only by a strictly smaller/larger value, so ties keep the
   first. *)
type acc = {
  mutable n : int;
  mutable total : Value.t;
  mutable fsum : float;
  mutable best : Row.rval;
}

(* A group: its key, its first member row (the SQL-style
   representative that non-aggregate columns read), its row count,
   and one accumulator per aggregate in the projection. *)
type group = { key : row; mutable rep : row; mutable size : int; accs : acc array }

let accumulate (kind : Ast.agg) a (x : Row.rval) =
  match kind with
  | Ast.Count -> a.n <- a.n + 1
  | Ast.Sum -> begin
    match x with
    | Row.Prim p -> a.total <- Value.add a.total p
    | Row.V _ | Row.E _ -> invalid_arg "SUM over a graph entity"
  end
  | Ast.Avg -> begin
    match x with
    | Row.Prim p -> begin
      match Value.to_float p with
      | Some f ->
        a.fsum <- a.fsum +. f;
        a.n <- a.n + 1
      | None -> ()
    end
    | Row.V _ | Row.E _ -> invalid_arg "AVG over a graph entity"
  end
  | Ast.Min ->
    if a.n = 0 || Row.rval_compare x a.best < 0 then begin
      a.best <- x;
      a.n <- 1
    end
  | Ast.Max ->
    if a.n = 0 || Row.rval_compare x a.best > 0 then begin
      a.best <- x;
      a.n <- 1
    end

let finalize (kind : Ast.agg) a =
  match kind with
  | Ast.Count -> Row.Prim (Value.Int a.n)
  | Ast.Sum -> Row.Prim a.total
  | Ast.Avg -> if a.n = 0 then unbound else Row.Prim (Value.Float (a.fsum /. float_of_int a.n))
  | Ast.Min | Ast.Max -> a.best

(* Two evaluated aggregate results combined by [op]. *)
let combine op va vb =
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> arith op va vb
  | Ast.Eq -> vbool (Row.rval_equal va vb)
  | Ast.Ne -> vbool (not (Row.rval_equal va vb))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> vbool (ordering op (Row.rval_compare va vb))
  | Ast.And | Ast.Or -> invalid_arg "Executor: boolean combination of aggregates"

(* An aggregating projection item compiled to its per-group value.
   Every [Agg] node registers an accumulator in [specs] (its inner
   expression and kind); arithmetic and negation over aggregates
   combine their results; any other sub-expression is evaluated on
   the group's representative row, and is null for an empty group. *)
let compile_aggregate g resolve specs (e : Ast.expr) : group -> Row.rval =
  let rec go (e : Ast.expr) =
    match e with
    | Ast.Count_star -> fun grp -> Row.Prim (Value.Int grp.size)
    | Ast.Agg (kind, inner) ->
      let j = List.length !specs in
      specs := !specs @ [ (kind, compile g resolve inner) ];
      fun grp -> finalize kind grp.accs.(j)
    | Ast.Binop (op, a, b) when Ast.has_aggregate e ->
      let fa = go a in
      let fb = go b in
      fun grp ->
        let va = fa grp in
        combine op va (fb grp)
    | Ast.Unop (Ast.Neg, a) when Ast.has_aggregate e ->
      let fa = go a in
      fun grp -> negate (fa grp)
    | _ ->
      let f = compile g resolve e in
      fun grp -> if grp.size = 0 then unbound else f grp.rep
  in
  go e

(* GROUP BY as one pass: [feed add] pushes the input rows, and [add]
   folds each into its group (found by its typed key, created on first
   sight). The result is one projected row per group, in first-seen
   order. With no GROUP BY there is exactly one group, present even
   over empty input. *)
let grouping g resolve (sb : Ast.select_block) feed =
  let specs = ref [] in
  let finals =
    Array.of_list
      (List.map
         (fun (it : Ast.select_item) -> compile_aggregate g resolve specs it.item_expr)
         sb.items)
  in
  let specs = Array.of_list !specs in
  let keys = Array.of_list (List.map (compile g resolve) sb.group_by) in
  let new_group key rep =
    {
      key;
      rep;
      size = 0;
      accs = Array.map (fun _ -> { n = 0; total = Value.Int 0; fsum = 0.0; best = unbound }) specs;
    }
  in
  Key_index.with_index (fun grp -> grp.key) @@ fun index ->
  let kbuf = Array.make (Array.length keys) unbound in
  (* No key: the one group of the empty key. *)
  if Array.length keys = 0 then
    ignore (Key_index.add index (Key_index.hash [||]) (new_group [||] [||]));
  let find row =
    for k = 0 to Array.length keys - 1 do
      kbuf.(k) <- keys.(k) row
    done;
    let h = Key_index.hash kbuf in
    let id = Key_index.find index h kbuf in
    if id >= 0 then Key_index.value index id
    else begin
      let grp = new_group (Array.copy kbuf) row in
      ignore (Key_index.add index h grp);
      grp
    end
  in
  let add row =
    let grp = find row in
    if grp.size = 0 then grp.rep <- row;
    grp.size <- grp.size + 1;
    for j = 0 to Array.length specs - 1 do
      let kind, inner = specs.(j) in
      match inner row with
      | Row.Prim Value.Null -> ()
      | x -> accumulate kind grp.accs.(j) x
    done
  in
  feed add;
  List.init (Key_index.size index) (fun id ->
      let grp = Key_index.value index id in
      Array.map (fun f -> f grp) finals)

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)

type slots = { index : (string, int) Hashtbl.t; mutable width : int }

let slot slots name =
  match Hashtbl.find_opt slots.index name with
  | Some i -> i
  | None ->
    let i = slots.width in
    slots.width <- i + 1;
    Hashtbl.add slots.index name i;
    i

let collect_slots (patterns : Ast.pattern list) =
  let slots = { index = Hashtbl.create 16; width = 0 } in
  List.iter
    (fun (p : Ast.pattern) ->
      (match p.p_start.n_var with Some v -> ignore (slot slots v) | None -> ());
      List.iter
        (fun ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
          (match e.e_var with Some v -> ignore (slot slots v) | None -> ());
          match n.n_var with Some v -> ignore (slot slots v) | None -> ())
        p.p_steps)
    patterns;
  slots

(* Distinct-endpoint var-length expansion: emit (endpoint, hops) once
   per endpoint whose walk length can fall in [lo, hi].

   For lo <= 1 a plain BFS is exact — any vertex first reached at hop
   d <= hi has a walk of length d >= lo — except the source itself,
   which BFS never revisits; a cyclic walk back to the source is
   detected when a frontier vertex points at it (this is what makes
   connector rewrites preserve j -> ... -> j self-pairs). For lo >= 2
   BFS under-approximates (a vertex at distance < lo may still have a
   longer walk), so exact per-level reachable sets are used instead. *)
(* The neighbor iterator is resolved once per expansion, outside the
   BFS loops: the typed cases walk their segmented-CSR slice directly
   (no per-edge [option] match, no filter closure allocation in the
   inner loop). *)
let neighbor_iter g ~etype ~(dir : Ast.edge_dir) =
  match (dir, etype) with
  | Ast.Fwd, Some et ->
    fun u f ->
      Metrics.incr m_expand_steps;
      Graph.iter_out_etype g u ~etype:et (fun ~dst ~eid:_ -> f dst)
  | Ast.Fwd, None ->
    fun u f ->
      Metrics.incr m_expand_steps;
      Graph.iter_out g u (fun ~dst ~etype:_ ~eid:_ -> f dst)
  | Ast.Bwd, Some et ->
    fun u f ->
      Metrics.incr m_expand_steps;
      Graph.iter_in_etype g u ~etype:et (fun ~src:s ~eid:_ -> f s)
  | Ast.Bwd, None ->
    fun u f ->
      Metrics.incr m_expand_steps;
      Graph.iter_in g u (fun ~src:s ~etype:_ ~eid:_ -> f s)

let var_length_endpoints ?budget g ~src ~lo ~hi ~etype ~(dir : Ast.edge_dir) emit =
  let neighbors = neighbor_iter g ~etype ~dir in
  (* One budget checkpoint per frontier-vertex expansion — the unit
     the BFS loops below already account to [m_expand_steps]. *)
  let neighbors u f =
    Budget.step budget Budget.Execute;
    neighbors u f
  in
  let n = Graph.n_vertices g in
  if lo <= 1 then
    (* Visited set and frontier queues are epoch-stamped scratch
       buffers borrowed from the domain-local pool: no per-query
       Hashtbl, no list-cons churn in the BFS inner loop. *)
    Scratch.with_set ~n @@ fun visited ->
    Scratch.with_vec @@ fun vec_a ->
    Scratch.with_vec @@ fun vec_b ->
    begin
      Scratch.add visited src;
      if lo = 0 then emit src 0;
      let src_emitted = ref (lo = 0) in
      let cur = ref vec_a and next = ref vec_b in
      Int_vec.push !cur src;
      let hop = ref 0 in
      while Int_vec.length !cur > 0 && !hop < hi do
        incr hop;
        Int_vec.clear !next;
        let visit u =
          neighbors u (fun v ->
              if v = src && not !src_emitted && !hop >= lo then begin
                src_emitted := true;
                emit src !hop
              end;
              if not (Scratch.mem visited v) then begin
                Scratch.add visited v;
                if !hop >= lo then emit v !hop;
                Int_vec.push !next v
              end)
        in
        Int_vec.iter visit !cur;
        let tmp = !cur in
        cur := !next;
        next := tmp
      done
    end
  else
    (* Exact walk semantics: level h = vertices reachable by a walk of
       exactly h steps. Level sets are (set, members-vector) pairs so
       dedupe is O(1) and iteration is in deterministic discovery
       order. *)
    Scratch.with_set ~n @@ fun emitted ->
    Scratch.with_set ~n @@ fun set_a ->
    Scratch.with_set ~n @@ fun set_b ->
    Scratch.with_vec @@ fun vec_a ->
    Scratch.with_vec @@ fun vec_b ->
    begin
      let cur_set = ref set_a and cur_vec = ref vec_a in
      let next_set = ref set_b and next_vec = ref vec_b in
      Scratch.add !cur_set src;
      Int_vec.push !cur_vec src;
      (try
         for h = 1 to hi do
           Scratch.clear !next_set;
           Int_vec.clear !next_vec;
           let ns = !next_set and nv = !next_vec in
           Int_vec.iter
             (fun u ->
               neighbors u (fun v ->
                   if not (Scratch.mem ns v) then begin
                     Scratch.add ns v;
                     Int_vec.push nv v
                   end))
             !cur_vec;
           if Int_vec.length nv = 0 then raise Exit;
           if h >= lo then
             Int_vec.iter
               (fun v ->
                 if not (Scratch.mem emitted v) then begin
                   Scratch.add emitted v;
                   emit v h
                 end)
               nv;
           let ts = !cur_set and tv = !cur_vec in
           cur_set := !next_set;
           cur_vec := !next_vec;
           next_set := ts;
           next_vec := tv
         done
       with Exit -> ())
    end

(* All-trails var-length expansion: DFS over distinct-edge trails,
   emitting each endpoint once per trail reaching it. Exponential. *)
let var_length_trails ?budget g ~src ~lo ~hi ~etype ~(dir : Ast.edge_dir) emit =
  (* Edge iterator resolved once, typed cases slice-walk; the
     distinct-edge set is an epoch-stamped scratch buffer over edge
     ids (add on descent, remove on backtrack). *)
  let iter_step =
    match (dir, etype) with
    | Ast.Fwd, Some et ->
      fun v k -> Graph.iter_out_etype g v ~etype:et (fun ~dst ~eid -> k eid dst)
    | Ast.Fwd, None -> fun v k -> Graph.iter_out g v (fun ~dst ~etype:_ ~eid -> k eid dst)
    | Ast.Bwd, Some et ->
      fun v k -> Graph.iter_in_etype g v ~etype:et (fun ~src:s ~eid -> k eid s)
    | Ast.Bwd, None -> fun v k -> Graph.iter_in g v (fun ~src:s ~etype:_ ~eid -> k eid s)
  in
  Scratch.with_set ~n:(Graph.n_edges g) @@ fun used ->
  let rec dfs v depth =
    Metrics.incr m_expand_steps;
    Budget.step budget Budget.Execute;
    if depth >= lo then emit v depth;
    if depth < hi then
      iter_step v (fun eid u ->
          if not (Scratch.mem used eid) then begin
            Scratch.add used eid;
            dfs u (depth + 1);
            Scratch.remove used eid
          end)
  in
  dfs src 0

(* See Cost.equality_probe — shared with the plan builder so EXPLAIN
   displays the access path this function actually takes. *)
let equality_probe = Cost.equality_probe

(* A block compiled against its input: output columns, and [iter sink]
   running the block and pushing each output row to [sink] in result
   order (rows handed to [sink] are fresh and may be kept). *)
type stream = { cols : string array; iter : (row -> unit) -> unit }

let label_test g (n : Ast.node_pat) =
  match n.n_label with
  | None -> fun _ -> true
  | Some l ->
    let schema = Graph.schema g in
    if Schema.has_vertex_type schema l then begin
      let ty = Schema.vertex_type_id schema l in
      fun v -> Graph.vertex_type g v = ty
    end
    else fun _ -> false

(* Hop counts bound to a variable-length edge variable, shared rather
   than allocated per binding: a returned hop count is retained with
   its row until the query ends. *)
let hop_rvals = Array.init 17 (fun h -> Row.Prim (Value.Int h))
let hop_rval h = if h < Array.length hop_rvals then hop_rvals.(h) else Row.Prim (Value.Int h)

(* Bind node-variable [slot] to vertex [v] around [k reg v x]: an
   unbound slot is written and restored afterwards, a bound one must
   already hold [v]. *)
let bind_vertex slot (reg : row) v x k =
  match slot with
  | None -> k reg v x
  | Some i -> begin
    match reg.(i) with
    | Row.Prim Value.Null ->
      reg.(i) <- Row.V v;
      k reg v x;
      reg.(i) <- unbound
    | Row.V w -> if w = v then k reg v x
    | Row.E _ | Row.Prim _ -> ()
  end

(* When profiling, [prof] is the "Match" plan node Cost.plan built for
   this block: children are one "Pattern" node per pattern (whose own
   children are the fused scan/expand operators) followed by a
   "Filter" node when a WHERE clause exists. The executor fills actual
   row counts (successful bindings) and per-pattern wall time into
   that same tree.

   Patterns run one after another, each over the rows the previous
   one produced. Within a pattern, bindings go into one register row
   that the pipeline writes before descending and restores after, so
   a binding copies nothing; only rows handed to the next pattern are
   copied. The last pattern's emitter runs WHERE and the RETURN
   projection on the register directly and pushes to the consumer. *)
let match_source ?prof ?budget ctx (mb : Ast.match_block) : stream =
  let g = ctx.g in
  let schema = Graph.schema g in
  let slots = collect_slots mb.patterns in
  let resolve = Hashtbl.find_opt slots.index in
  let slot_of = Option.map (Hashtbl.find slots.index) in
  (* Access path of each pattern's start: resume from a bound
     variable, probe the index for an equality conjunct on it, or
     scan. When the start variable is unbound on entry, every row of
     the pattern comes from the probe and satisfies its conjunct, so
     the conjunct is dropped from the WHERE run on the output. *)
  let probes, where =
    let bound = Hashtbl.create 8 in
    let where = ref mb.m_where in
    let probes =
      List.map
        (fun (p : Ast.pattern) ->
          let probe =
            match (p.p_start.n_var, mb.m_where) with
            | Some var, Some cond ->
              Option.map (fun (prop, value, _) -> (prop, value)) (equality_probe cond var)
            | _ -> None
          in
          (match (p.p_start.n_var, !where) with
          | Some var, Some cond when not (Hashtbl.mem bound var) ->
            Option.iter (fun (_, _, rest) -> where := rest) (equality_probe cond var)
          | _ -> ());
          let note = Option.iter (fun v -> Hashtbl.replace bound v ()) in
          note p.p_start.n_var;
          List.iter
            (fun ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
              note e.e_var;
              note n.n_var)
            p.p_steps;
          probe)
        mb.patterns
    in
    (probes, !where)
  in
  let pred = Option.map (compile_pred g resolve) where in
  let items = compile_items g resolve mb.returns in
  let par_pool =
    match ctx.pool with
    | Some pl when Kaskade_util.Pool.effective_workers pl > 1 -> Some pl
    | _ -> None
  in
  (* [run_pattern ~tally ~emit p probe rows] extends each input row
     through pattern [p]. [emit] gets the register, and must copy what
     it keeps. [tally i] counts one successful binding at fused-operator
     index [i] of the pattern (0 = start scan, j = j-th step) — only
     wired up when profiling. *)
  let run_pattern ?(tally = fun (_ : int) -> ()) ~emit (p : Ast.pattern) probe rows =
    let n_steps = List.length p.p_steps in
    let s_slot = slot_of p.p_start.n_var in
    (* The whole per-candidate pipeline (scan test, step walk,
       var-length expansion), parameterized over its row and tally
       sinks so the parallel scan below can give each morsel its own
       buffers. [make_start ~emit ~tally] returns [start reg v]: try
       candidate start vertex [v] against register [reg]. *)
    let make_start ~emit ~tally =
      let rec chain idx = function
        | [] -> fun reg _ -> emit reg
        | ((e : Ast.edge_pat), (n : Ast.node_pat)) :: rest ->
          let next = chain (idx + 1) rest in
          let n_ok = label_test g n and n_slot = slot_of n.n_var and e_slot = slot_of e.e_var in
          let edge_rval =
            match e.e_len with Ast.Single -> fun eid -> Row.E eid | Ast.Var_length _ -> hop_rval
          in
          let proceed reg v x =
            tally idx;
            match e_slot with
            | None -> next reg v
            | Some i ->
              let old = reg.(i) in
              reg.(i) <- edge_rval x;
              next reg v;
              reg.(i) <- old
          in
          (* [x] is the edge id (single hop) or hop count (var-length). *)
          let accept reg x v = if n_ok v then bind_vertex n_slot reg v x proceed in
          let etype = Option.map (Schema.edge_type_id schema) e.e_label in
          begin
            match e.e_len with
            | Ast.Single -> begin
              (* Labelled steps walk their typed slice directly instead
                 of filter-scanning the whole adjacency. *)
              match (e.e_dir, etype) with
              | Ast.Fwd, Some et ->
                fun reg cur ->
                  Graph.iter_out_etype g cur ~etype:et (fun ~dst ~eid -> accept reg eid dst)
              | Ast.Fwd, None ->
                fun reg cur -> Graph.iter_out g cur (fun ~dst ~etype:_ ~eid -> accept reg eid dst)
              | Ast.Bwd, Some et ->
                fun reg cur ->
                  Graph.iter_in_etype g cur ~etype:et (fun ~src ~eid -> accept reg eid src)
              | Ast.Bwd, None ->
                fun reg cur -> Graph.iter_in g cur (fun ~src ~etype:_ ~eid -> accept reg eid src)
            end
            | Ast.Var_length (lo, hi) ->
              let expand =
                match ctx.mode with
                | Distinct_endpoints -> var_length_endpoints
                | All_trails -> var_length_trails
              in
              fun reg cur ->
                expand ?budget g ~src:cur ~lo ~hi ~etype ~dir:e.e_dir (fun v hops ->
                    accept reg hops v)
          end
      in
      let steps = chain 1 p.p_steps in
      let start_ok = label_test g p.p_start in
      let begin_steps reg v _ =
        tally 0;
        steps reg v
      in
      fun reg (v : int) ->
        (* Scan checkpoint: one step per candidate start vertex,
           whether or not it binds. *)
        Budget.step budget Budget.Execute;
        if start_ok v then bind_vertex s_slot reg v 0 begin_steps
    in
    let start =
      make_start
        ~emit:(fun reg ->
          Budget.add_rows budget Budget.Execute 1;
          emit reg)
        ~tally
    in
    (* Unbound start scans over enough candidates fan out over the
       pool as work-stealing morsels: each morsel runs the pipeline
       for its candidate subrange on a private register, buffering
       copies of its rows and a private tally array; the caller then
       replays the buffers into [emit] in morsel order — the row
       sequence downstream (and every tally total) is exactly the
       sequential one, at any width and any grain. Per-candidate
       budget checkpoints run inside the morsels against the shared
       (racy-but-monotone) budget, and var-length expansions borrow
       each worker's own domain-local scratch. *)
    let scan_candidates row ~n candidate =
      match par_pool with
      | Some pl when n >= parallel_scan_threshold ->
        let parts =
          Kaskade_util.Pool.map_morsels pl ~n (fun ~lo ~hi ->
              let m_out = ref [] in
              let m_counts = Array.make (n_steps + 1) 0 in
              let m_emit reg =
                Budget.add_rows budget Budget.Execute 1;
                m_out := Array.copy reg :: !m_out
              in
              let m_start =
                make_start ~emit:m_emit ~tally:(fun i -> m_counts.(i) <- m_counts.(i) + 1)
              in
              let reg = Array.copy row in
              for i = lo to hi - 1 do
                m_start reg (candidate i)
              done;
              (!m_out, m_counts))
        in
        Array.iter
          (fun (rows_m, counts_m) ->
            Array.iteri
              (fun i c ->
                for _ = 1 to c do
                  tally i
                done)
              counts_m;
            List.iter emit (List.rev rows_m))
          parts
      | _ ->
        for i = 0 to n - 1 do
          start row (candidate i)
        done
    in
    List.iter
      (fun (row : row) ->
        (* If the start variable is already bound, resume from it
           directly instead of scanning. *)
        let bound_start =
          match s_slot with
          | Some i -> begin match row.(i) with Row.V v -> Some v | _ -> None end
          | None -> None
        in
        match (bound_start, probe) with
        | Some v, _ -> start row v
        | None, Some (prop, value) ->
          List.iter (start row) (Vindex.lookup (Lazy.force ctx.indexes) ~prop value)
        | None, None -> begin
          match p.p_start.n_label with
          | Some l ->
            let cands = Graph.vertices_of_type_name g l in
            scan_candidates row ~n:(Array.length cands) (fun i -> cands.(i))
          | None -> scan_candidates row ~n:(Graph.n_vertices g) (fun i -> i)
        end)
      rows
  in
  let n_patterns = List.length mb.patterns in
  let child_prof i =
    match prof with
    | Some (m : Explain.node) -> List.nth_opt m.Explain.children i
    | None -> None
  in
  (* One pattern, profiled when its plan node exists: actual rows out,
     per-operator binding counts, and wall time (for the last pattern,
     inclusive of the fused WHERE/RETURN and the consumer). *)
  let run idx p probe rows emit =
    match child_prof idx with
    | None -> run_pattern ~emit p probe rows
    | Some pnode ->
      let n_steps = List.length p.Ast.p_steps in
      let counts = Array.make (n_steps + 1) 0 in
      let produced = ref 0 in
      let t0 = Trace.now_s () in
      run_pattern
        ~tally:(fun i -> counts.(i) <- counts.(i) + 1)
        ~emit:(fun reg ->
          incr produced;
          emit reg)
        p probe rows;
      Explain.set_time pnode (Trace.now_s () -. t0);
      Explain.set_actual pnode !produced;
      (* Children are listed downstream-first (step n, .., step 1,
         scan) while [counts] is pipeline-ordered (0 = scan). *)
      List.iteri
        (fun i (child : Explain.node) ->
          if i <= n_steps then Explain.set_actual child counts.(n_steps - i))
        pnode.Explain.children
  in
  let iter sink =
    let t_match = match prof with None -> 0.0 | Some _ -> Trace.now_s () in
    let out = ref 0 in
    let final reg =
      match pred with
      | Some p when not (p reg) -> ()
      | _ ->
        incr out;
        sink (project items reg)
    in
    let rec go idx rows = function
      | [] -> List.iter final rows
      | [ (p, probe) ] -> run idx p probe rows final
      | (p, probe) :: rest ->
        let next = ref [] in
        run idx p probe rows (fun reg -> next := Array.copy reg :: !next);
        go (idx + 1) (List.rev !next) rest
    in
    go 0 [ Array.make (Stdlib.max slots.width 1) unbound ] (List.combine mb.patterns probes);
    if mb.m_where <> None then
      Option.iter (fun f -> Explain.set_actual f !out) (child_prof n_patterns);
    match prof with
    | Some m ->
      Explain.set_actual m !out;
      Explain.set_time m (Trace.now_s () -. t_match)
    | None -> ()
  in
  { cols = Array.of_list (List.mapi Ast.item_name mb.returns); iter }

(* ------------------------------------------------------------------ *)
(* SELECT blocks                                                       *)

let rec select_source ?prof ?budget ctx (sb : Ast.select_block) : stream =
  let g = ctx.g in
  (* Peel the stage chain Cost.select_plan built — Limit over Sort
     over Distinct over Aggregate/Project over Filter over the source
     — mirroring its construction conditions, so each stage below can
     record its actual output cardinality on the right node. *)
  let peel cond n =
    if not cond then (None, n)
    else
      match n with
      | Some (node : Explain.node) -> (Some node, List.nth_opt node.Explain.children 0)
      | None -> (None, None)
  in
  let limit_p, n = peel (sb.limit <> None) prof in
  let sort_p, n = peel (sb.order_by <> []) n in
  let dist_p, n = peel sb.distinct n in
  let proj_p, n = peel true n in
  let filt_p, src_p = peel (sb.s_where <> None) n in
  let source =
    match sb.from with
    | Ast.From_match mb -> match_source ?prof:src_p ?budget ctx mb
    | Ast.From_select inner -> select_source ?prof:src_p ?budget ctx inner
  in
  let resolve = Row.col_slot source.cols in
  let cols = Array.of_list (List.mapi Ast.item_name sb.items) in
  let passed = ref 0 in
  let pass =
    match sb.s_where with
    | None -> fun _ -> true
    | Some cond ->
      let p = compile_pred g resolve cond in
      fun row ->
        if p row then begin
          incr passed;
          true
        end
        else false
  in
  let set_actual node n = Option.iter (fun node -> Explain.set_actual node n) node in
  (* The projected rows, before DISTINCT / ORDER BY / LIMIT. *)
  let body =
    let any_agg =
      List.exists (fun (it : Ast.select_item) -> Ast.has_aggregate it.item_expr) sb.items
    in
    if sb.group_by = [] && not any_agg then begin
      let items = compile_items g resolve sb.items in
      fun out -> source.iter (fun row -> if pass row then out (project items row))
    end
    else fun out ->
      List.iter out
        (grouping g resolve sb (fun add -> source.iter (fun row -> if pass row then add row)))
  in
  (* ORDER BY / LIMIT run over the projected output (aliases in
     scope); DISTINCT before both, SQL-style. *)
  let order_keys =
    List.map (fun (e, dir) -> (compile g (Row.col_slot cols) e, dir)) sb.order_by
  in
  let finish rows =
    let rows =
      if not sb.distinct then rows
      else begin
        let rows =
          Key_index.with_index Fun.id @@ fun seen ->
          List.filter
            (fun row ->
              let h = Key_index.hash row in
              Key_index.find seen h row < 0
              &&
              (ignore (Key_index.add seen h row);
               true))
            rows
        in
        set_actual dist_p (List.length rows);
        rows
      end
    in
    let rows =
      if sb.order_by = [] then rows
      else begin
        (* Keys are computed once per row; a list of fewer than two
           rows is never compared, so its keys are never evaluated. *)
        let rows =
          match rows with
          | [] | [ _ ] -> rows
          | _ ->
            let rec cmp ka kb dirs =
              match (ka, kb, dirs) with
              | a :: ka, b :: kb, (_, dir) :: dirs ->
                let c = Row.rval_compare a b in
                if c <> 0 then (match dir with Ast.Asc -> c | Ast.Desc -> -c) else cmp ka kb dirs
              | _ -> 0
            in
            List.map (fun row -> (List.map (fun (f, _) -> f row) order_keys, row)) rows
            |> List.stable_sort (fun (ka, _) (kb, _) -> cmp ka kb order_keys)
            |> List.map snd
        in
        set_actual sort_p (List.length rows);
        rows
      end
    in
    match sb.limit with
    | Some n ->
      let rec take k = function [] -> [] | x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> [] in
      let rows = take n rows in
      set_actual limit_p (List.length rows);
      rows
    | None -> rows
  in
  let iter sink =
    let t_select = match prof with None -> 0.0 | Some _ -> Trace.now_s () in
    let projected = ref 0 in
    let stages_done () =
      set_actual filt_p !passed;
      set_actual proj_p !projected
    in
    let timed () =
      Option.iter (fun (n : Explain.node) -> Explain.set_time n (Trace.now_s () -. t_select)) prof
    in
    if (not sb.distinct) && sb.order_by = [] && sb.limit = None then begin
      body (fun row ->
          incr projected;
          sink row);
      stages_done ();
      timed ()
    end
    else begin
      let rows = ref [] in
      body (fun row ->
          incr projected;
          rows := row :: !rows);
      stages_done ();
      let rows = finish (List.rev !rows) in
      timed ();
      List.iter sink rows
    end
  in
  { cols; iter }

let collect (src : stream) =
  let rows = ref [] in
  src.iter (fun row -> rows := row :: !rows);
  { Row.cols = src.cols; rows = List.rev !rows }

(* ------------------------------------------------------------------ *)
(* CALL procedures                                                     *)

let eval_call ctx (c : Ast.proc_call) : result =
  match (c.proc, c.proc_args) with
  | "algo.labelPropagation", [ Value.Int passes ] ->
    let labels = Kaskade_algo.Label_prop.run ctx.g ~passes in
    ctx.communities <- Some labels;
    Affected (Graph.n_vertices ctx.g)
  | "algo.largestCommunity", [ Value.Str type_name ] -> begin
    match ctx.communities with
    | None -> invalid_arg "algo.largestCommunity: run algo.labelPropagation first"
    | Some labels ->
      let count_type =
        if type_name = "" then None
        else Some (Schema.vertex_type_id (Graph.schema ctx.g) type_name)
      in
      let label, members =
        Kaskade_algo.Label_prop.largest_community ctx.g ~labels ?count_type ()
      in
      Table
        {
          Row.cols = [| "vertex"; "community" |];
          rows = List.map (fun v -> [| Row.V v; Row.Prim (Value.Int label) |]) members;
        }
  end
  | name, _ -> invalid_arg ("Executor: unknown procedure or bad arguments: " ^ name)

(* Semantic check + planner pass — the query that will actually
   execute (and that EXPLAIN must therefore describe). *)
let prepare ctx (q : Ast.t) =
  match q with
  | Ast.Call _ -> q
  | Ast.Match_only _ | Ast.Select _ ->
    ignore (Analyze.check (Graph.schema ctx.g) q);
    if ctx.planner then Planner.optimize (Lazy.force ctx.stats) (Graph.schema ctx.g) q else q

let exec_prepared ?prof ?budget ctx (q : Ast.t) : result =
  match q with
  | Ast.Call c -> eval_call ctx c
  | Ast.Match_only mb -> Table (collect (match_source ?prof ?budget ctx mb))
  | Ast.Select sb -> Table (collect (select_source ?prof ?budget ctx sb))

let account result =
  Metrics.incr m_queries_run;
  (match result with
  | Table t -> Metrics.incr ~by:(Row.n_rows t) m_rows_produced
  | Affected _ -> ());
  result

let run ?budget ctx (q : Ast.t) : result =
  Trace.with_span "executor.run" @@ fun () ->
  sync ctx;
  (* Entry checkpoint: an already-exhausted budget (0ms deadline) must
     fire before any scan starts, and fault injection can force a
     timeout here. *)
  Budget.check budget Budget.Execute;
  Budget.fault_point Budget.Execute ~site:"executor.run";
  account (exec_prepared ?budget ctx (prepare ctx q))

let explain ctx (q : Ast.t) =
  sync ctx;
  let q = prepare ctx q in
  Cost.plan (Lazy.force ctx.stats) (Graph.schema ctx.g) q

let run_explained ?(profile = false) ?budget ctx (q : Ast.t) =
  Trace.with_span "executor.run" @@ fun () ->
  sync ctx;
  Budget.check budget Budget.Execute;
  Budget.fault_point Budget.Execute ~site:"executor.run";
  let q = prepare ctx q in
  let plan = Cost.plan (Lazy.force ctx.stats) (Graph.schema ctx.g) q in
  let prof = if profile then Some plan else None in
  let t0 = Trace.now_s () in
  let result = account (exec_prepared ?prof ?budget ctx q) in
  (* MATCH/SELECT roots annotate themselves; CALL has no eval-side
     instrumentation, so fill its single node here. *)
  (if profile then
     match q with
     | Ast.Call _ ->
       Explain.set_time plan (Trace.now_s () -. t0);
       (match result with
       | Affected n -> Explain.set_actual plan n
       | Table t -> Explain.set_actual plan (Row.n_rows t))
     | Ast.Match_only _ | Ast.Select _ -> ());
  (result, plan)

let run_string ctx src = run ctx (Qparser.parse src)
