(* Numeric keys are stored under their float image, so that [Int n]
   and [Float n.] — equal under [Value.equal] — share a bucket; a
   lookup then keeps only the bucket's vertices whose stored value is
   [Value.equal] to the probe (distinct ints past 2^53 can share a
   float image, and NaN equals nothing). *)
let key = function Value.Int n -> Value.Float (float_of_int n) | v -> v

type t = {
  g : Graph.t;
  tables : (string, (Value.t, int list) Hashtbl.t) Hashtbl.t;
  mutable builds : int;
}

let create g = { g; tables = Hashtbl.create 8; builds = 0 }

let build t prop =
  let table = Hashtbl.create 1024 in
  for v = Graph.n_vertices t.g - 1 downto 0 do
    match Graph.vprop t.g v prop with
    | Some value -> begin
      let k = key value in
      match Hashtbl.find_opt table k with
      | Some ids -> Hashtbl.replace table k (v :: ids)
      | None -> Hashtbl.add table k [ v ]
    end
    | None -> ()
  done;
  t.builds <- t.builds + 1;
  Hashtbl.add t.tables prop table;
  table

let lookup t ~prop value =
  let table =
    match Hashtbl.find_opt t.tables prop with Some tbl -> tbl | None -> build t prop
  in
  match Hashtbl.find_opt table (key value) with
  | Some ids -> begin
    match value with
    | Value.Int _ | Value.Float _ ->
      List.filter (fun v -> Value.equal (Graph.vprop_or_null t.g v prop) value) ids
    | Value.Null | Value.Bool _ | Value.Str _ -> ids
  end
  | None -> []

let indexed_props t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort compare

let build_count t = t.builds
