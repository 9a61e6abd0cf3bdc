open Kaskade_graph
open Kaskade_query

type estimate = { total_cost : float; match_rows : float }

(* Branching factor when stepping out of a node of (optional) type
   [label]: mean out-degree of that type, or the global mean. At least
   a small epsilon so costs stay monotone in path length. *)
let branching ?(deg_override = fun _ -> None) stats schema label =
  let overridden = match label with Some l -> deg_override l | None -> None in
  let d =
    match overridden with
    | Some d -> d
    | None ->
    match label with
    | Some l -> begin
      match Schema.vertex_type_id schema l with
      | ty -> Gstats.out_degree_mean stats ~vtype:ty
      | exception Not_found -> Gstats.global_out_degree_mean stats
    end
    | None -> Gstats.global_out_degree_mean stats
  in
  Stdlib.max d 0.01

(* Variable-length expansions are BFS whose per-level growth is the
   size-biased mean degree E(d^2)/E(d) — following an edge reaches a
   vertex with probability proportional to its degree, so hubs
   dominate the frontier on skewed graphs. Percentiles miss this
   entirely (95% of a power-law graph's vertices have tiny degrees
   while its hubs carry the walk). *)
let tail_branching ?(deg_override = fun _ -> None) stats schema label =
  let overridden = match label with Some l -> deg_override l | None -> None in
  let d =
    match overridden with
    | Some d -> d
    | None ->
    match label with
    | Some l -> begin
      match Schema.vertex_type_id schema l with
      | ty -> Gstats.out_degree_size_biased stats ~vtype:ty
      | exception Not_found -> Gstats.global_out_degree_size_biased stats
    end
    | None -> Gstats.global_out_degree_size_biased stats
  in
  Stdlib.max d 0.01

let scan_cardinality stats schema label =
  match label with
  | Some l -> begin
    match Schema.vertex_type_id schema l with
    | ty -> float_of_int (Gstats.summary_of_type stats ty).count
    | exception Not_found -> float_of_int (Gstats.total_vertices stats)
  end
  | None -> float_of_int (Gstats.total_vertices stats)

(* Top-level conjunctive equality [var.prop = literal] in a WHERE
   clause — the predicate shape an index probe can serve. Shared by
   the executor (to probe) and the plan builder (to display the access
   path the executor will pick). The residual lets the executor skip
   the conjunct the probe already answered. A [null] literal is never
   probed: [x.p = null] also holds for every vertex that lacks [p],
   which no index over stored values can list. *)
let rec equality_probe (e : Ast.expr) var =
  match e with
  | Ast.Binop (Ast.Eq, Ast.Prop (v, p), Ast.Lit value)
  | Ast.Binop (Ast.Eq, Ast.Lit value, Ast.Prop (v, p))
    when v = var && value <> Kaskade_graph.Value.Null ->
    Some (p, value, None)
  | Ast.Binop (Ast.And, a, b) -> begin
    let conj l r =
      match (l, r) with None, x | x, None -> x | Some l, Some r -> Some (Ast.Binop (Ast.And, l, r))
    in
    match equality_probe a var with
    | Some (p, value, rest) -> Some (p, value, conj rest (Some b))
    | None -> Option.map (fun (p, value, rest) -> (p, value, conj (Some a) rest)) (equality_probe b var)
  end
  | _ -> None

(* [on_stage] reports the running cardinality after the start scan and
   after each expand step — the plan builder below turns those numbers
   into operator nodes, so estimates shown by EXPLAIN are by
   construction the ones the cost model priced. *)
let pattern_cost ?deg_override ?(on_stage = fun _ ~rows:_ -> ()) stats schema ~start_bound
    (p : Ast.pattern) =
  let cost = ref 0.0 in
  let rows = ref (if start_bound then 1.0 else scan_cardinality stats schema p.p_start.n_label) in
  cost := !cost +. !rows;
  on_stage `Scan ~rows:!rows;
  let cur_label = ref p.p_start.n_label in
  List.iter
    (fun ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
      (match e.e_len with
      | Ast.Single ->
        let deg = branching ?deg_override stats schema !cur_label in
        rows := !rows *. deg
      | Ast.Var_length (lo, hi) ->
        (* First step leaves a uniform vertex (mean degree); later
           steps follow edges (size-biased degree). *)
        let mean_deg = branching ?deg_override stats schema !cur_label in
        let tail_deg = tail_branching ?deg_override stats schema !cur_label in
        let hi = Stdlib.min hi 16 in
        let fanout = ref 0.0 in
        let p = ref 1.0 in
        for h = 0 to hi do
          if h >= lo then fanout := !fanout +. !p;
          p := !p *. (if h = 0 then mean_deg else tail_deg)
        done;
        (* Distinct-endpoint expansion is a BFS whose work per row is
           bounded by the graph itself (vertices + edges). *)
        let cap =
          float_of_int (Stdlib.max 1 (Gstats.total_vertices stats + Gstats.total_edges stats))
        in
        rows := !rows *. Stdlib.max (Stdlib.min !fanout cap) 1.0);
      (* A label on the target vertex filters the expansion by the
         share of that type among all vertices. *)
      (match n.n_label with
      | Some l -> begin
        match Schema.vertex_type_id schema l with
        | ty ->
          let share =
            float_of_int (Gstats.summary_of_type stats ty).count
            /. float_of_int (Stdlib.max 1 (Gstats.total_vertices stats))
          in
          (* Typed schemas route edges to their range type, so a
             matching label is closer to a no-op filter; damp rather
             than multiply blindly. *)
          rows := !rows *. Stdlib.max share 0.5
        | exception Not_found -> ()
      end
      | None -> ());
      cost := !cost +. !rows;
      on_stage (`Step (e, n)) ~rows:!rows;
      cur_label := n.n_label)
    p.p_steps;
  (!cost, !rows)

let match_cost ?deg_override stats schema (mb : Ast.match_block) =
  (* Patterns chain through shared variables: after the first, a
     pattern whose start variable was bound by an earlier pattern
     resumes per-row instead of rescanning. *)
  let bound = Hashtbl.create 8 in
  let bind_pattern (p : Ast.pattern) =
    (match p.p_start.n_var with Some v -> Hashtbl.replace bound v () | None -> ());
    List.iter
      (fun ((_ : Ast.edge_pat), (n : Ast.node_pat)) ->
        match n.n_var with Some v -> Hashtbl.replace bound v () | None -> ())
      p.p_steps
  in
  let total_cost = ref 0.0 in
  let rows = ref 1.0 in
  List.iter
    (fun (p : Ast.pattern) ->
      let start_bound =
        match p.p_start.n_var with Some v -> Hashtbl.mem bound v | None -> false
      in
      let c, r = pattern_cost ?deg_override stats schema ~start_bound p in
      total_cost := !total_cost +. (!rows *. c);
      rows := !rows *. r;
      bind_pattern p)
    mb.patterns;
  (* WHERE + projection pass. *)
  total_cost := !total_cost +. !rows;
  (!total_cost, !rows)

let rec select_cost ?deg_override stats schema (sb : Ast.select_block) =
  let source_cost, source_rows =
    match sb.from with
    | Ast.From_match mb -> match_cost ?deg_override stats schema mb
    | Ast.From_select inner -> select_cost ?deg_override stats schema inner
  in
  (* Filter + group-by pass over the source rows. *)
  (source_cost +. source_rows, source_rows)

let estimate ?deg_override stats schema q =
  match q with
  | Ast.Match_only mb ->
    let c, r = match_cost ?deg_override stats schema mb in
    { total_cost = c; match_rows = r }
  | Ast.Select sb ->
    let c, r = select_cost ?deg_override stats schema sb in
    { total_cost = c; match_rows = r }
  | Ast.Call _ ->
    (* Analytics procedures scan the whole graph once per pass; treat
       as |V| + |E|. *)
    let n = float_of_int (Gstats.total_vertices stats) in
    let m = float_of_int (Gstats.total_edges stats) in
    { total_cost = n +. m; match_rows = n }

let eval_cost ?deg_override stats schema q = (estimate ?deg_override stats schema q).total_cost

(* ------------------------------------------------------------------ *)
(* Plan trees (EXPLAIN)                                                 *)

module Explain = Kaskade_obs.Explain

let node_str (n : Ast.node_pat) =
  Printf.sprintf "(%s%s)"
    (Option.value n.n_var ~default:"")
    (match n.n_label with Some l -> ":" ^ l | None -> "")

let edge_str (e : Ast.edge_pat) =
  let inner =
    Printf.sprintf "[%s%s%s]"
      (Option.value e.e_var ~default:"")
      (match e.e_label with Some l -> ":" ^ l | None -> "")
      (match e.e_len with
      | Ast.Single -> ""
      | Ast.Var_length (lo, hi) -> Printf.sprintf "*%d..%d" lo hi)
  in
  match e.e_dir with Ast.Fwd -> "-" ^ inner ^ "->" | Ast.Bwd -> "<-" ^ inner ^ "-"

let items_str items = String.concat ", " (List.mapi Ast.item_name items)

(* Access-path operator for a pattern's start node, mirroring the
   executor's choice exactly (bound variable > index probe > label
   scan > all-vertex scan). *)
let scan_op ~start_bound ~(mb_where : Ast.expr option) (start : Ast.node_pat) =
  if start_bound then ("Argument", "")
  else begin
    match (start.n_var, mb_where) with
    | Some var, Some cond when equality_probe cond var <> None ->
      let prop, value, _ = Option.get (equality_probe cond var) in
      ( "NodeIndexSeek",
        Printf.sprintf " %s.%s = %s" var prop (Kaskade_graph.Value.to_string value) )
    | _ -> begin
      match start.n_label with
      | Some _ -> ("NodeByLabelScan", "")
      | None -> ("AllNodesScan", "")
    end
  end

let match_plan ?deg_override stats schema (mb : Ast.match_block) =
  let bound = Hashtbl.create 8 in
  let bind_pattern (p : Ast.pattern) =
    (match p.p_start.n_var with Some v -> Hashtbl.replace bound v () | None -> ());
    List.iter
      (fun ((_ : Ast.edge_pat), (n : Ast.node_pat)) ->
        match n.n_var with Some v -> Hashtbl.replace bound v () | None -> ())
      p.p_steps
  in
  let rows = ref 1.0 in
  let pattern_nodes =
    List.map
      (fun (p : Ast.pattern) ->
        let start_bound =
          match p.p_start.n_var with Some v -> Hashtbl.mem bound v | None -> false
        in
        let rows_in = !rows in
        let stages = ref [] in
        let _, r =
          pattern_cost ?deg_override
            ~on_stage:(fun s ~rows -> stages := (s, rows) :: !stages)
            stats schema ~start_bound p
        in
        rows := !rows *. r;
        bind_pattern p;
        let children =
          List.rev_map
            (fun (stage, stage_rows) ->
              let est_rows = rows_in *. stage_rows in
              match stage with
              | `Scan ->
                let op, extra = scan_op ~start_bound ~mb_where:mb.m_where p.p_start in
                Explain.node op ~detail:(node_str p.p_start ^ extra) ~est_rows []
              | `Step ((e : Ast.edge_pat), (n : Ast.node_pat)) ->
                let op =
                  match e.e_len with Ast.Single -> "Expand" | Ast.Var_length _ -> "VarExpand"
                in
                Explain.node op ~detail:(edge_str e ^ node_str n) ~est_rows [])
            !stages
          |> List.rev
        in
        Explain.node "Pattern" ~detail:(Kaskade_query.Pretty.pattern_to_string p) ~est_rows:!rows
          children)
      mb.patterns
  in
  (* WHERE selectivity is not modelled (the cost model charges it as a
     pass); the estimate carried over is an upper bound. *)
  let filter_nodes =
    match mb.m_where with
    | None -> []
    | Some cond -> [ Explain.node "Filter" ~detail:(Ast.expr_to_string cond) ~est_rows:!rows [] ]
  in
  ( Explain.node "Match" ~detail:("RETURN " ^ items_str mb.returns) ~est_rows:!rows
      (pattern_nodes @ filter_nodes),
    !rows )

let rec select_plan ?deg_override stats schema (sb : Ast.select_block) =
  let source, rows =
    match sb.from with
    | Ast.From_match mb -> match_plan ?deg_override stats schema mb
    | Ast.From_select inner -> select_plan ?deg_override stats schema inner
  in
  let n =
    match sb.s_where with
    | None -> source
    | Some cond -> Explain.node "Filter" ~detail:(Ast.expr_to_string cond) ~est_rows:rows [ source ]
  in
  let any_agg = List.exists (fun (it : Ast.select_item) -> Ast.has_aggregate it.item_expr) sb.items in
  let n, rows =
    if sb.group_by <> [] || any_agg then begin
      let est = if sb.group_by = [] then 1.0 else rows in
      let detail =
        items_str sb.items
        ^
        if sb.group_by = [] then ""
        else " GROUP BY " ^ String.concat ", " (List.map Ast.expr_to_string sb.group_by)
      in
      (Explain.node "Aggregate" ~detail ~est_rows:est [ n ], est)
    end
    else (Explain.node "Project" ~detail:(items_str sb.items) ~est_rows:rows [ n ], rows)
  in
  let n = if sb.distinct then Explain.node "Distinct" ~est_rows:rows [ n ] else n in
  let n =
    if sb.order_by = [] then n
    else
      Explain.node "Sort"
        ~detail:
          (String.concat ", "
             (List.map
                (fun (e, dir) ->
                  Ast.expr_to_string e ^ match dir with Ast.Asc -> " ASC" | Ast.Desc -> " DESC")
                sb.order_by))
        ~est_rows:rows [ n ]
  in
  match sb.limit with
  | Some k ->
    let est = Stdlib.min rows (float_of_int k) in
    (Explain.node "Limit" ~detail:(string_of_int k) ~est_rows:est [ n ], est)
  | None -> (n, rows)

let plan ?deg_override stats schema (q : Ast.t) =
  match q with
  | Ast.Match_only mb -> fst (match_plan ?deg_override stats schema mb)
  | Ast.Select sb -> fst (select_plan ?deg_override stats schema sb)
  | Ast.Call c ->
    let { match_rows; _ } = estimate ?deg_override stats schema q in
    Explain.node "Procedure"
      ~detail:
        (c.proc ^ "("
        ^ String.concat ", " (List.map Kaskade_graph.Value.to_string c.proc_args)
        ^ ")")
      ~est_rows:match_rows []
