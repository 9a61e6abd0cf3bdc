open Kaskade_graph

type rval = V of int | E of int | Prim of Value.t

type table = { cols : string array; rows : rval array list }

let rval_equal a b =
  match (a, b) with
  | V x, V y -> x = y
  | E x, E y -> x = y
  | Prim x, Prim y -> Value.equal x y
  | _ -> false

let rank = function V _ -> 0 | E _ -> 1 | Prim _ -> 2

let rval_compare a b =
  match (a, b) with
  | V x, V y -> Stdlib.compare x y
  | E x, E y -> Stdlib.compare x y
  | Prim x, Prim y -> Value.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let rval_to_string g = function
  | V v -> begin
    let ty = Graph.vertex_type_name g v in
    match Graph.vprop g v "name" with
    | Some (Value.Str name) -> Printf.sprintf "%s#%d(%s)" ty v name
    | _ -> Printf.sprintf "%s#%d" ty v
  end
  | E e -> Printf.sprintf "edge#%d" e
  | Prim v -> Value.to_string v

let col_slot cols name =
  let rec find i =
    if i = Array.length cols then None else if String.equal cols.(i) name then Some i else find (i + 1)
  in
  find 0

let col_index t name = match col_slot t.cols name with Some i -> i | None -> raise Not_found

let n_rows t = List.length t.rows

let pp g ppf t =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " (Array.to_list t.cols));
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@,"
        (String.concat " | " (Array.to_list (Array.map (rval_to_string g) row))))
    (take 20 t.rows);
  if n_rows t > 20 then Format.fprintf ppf "... (%d rows total)@," (n_rows t);
  Format.fprintf ppf "@]"
