(** Runtime values and result tables of the query executor. A value is
    either a graph entity reference (vertex/edge id) or a primitive —
    RETURN can project whole vertices (paper Listing 1:
    [RETURN q_j1 as A]) whose properties outer SELECTs then access. *)

type rval =
  | V of int  (** Vertex reference. *)
  | E of int  (** Edge reference. *)
  | Prim of Kaskade_graph.Value.t

type table = {
  cols : string array;
  rows : rval array list;  (** In result order. *)
}

val rval_equal : rval -> rval -> bool
val rval_compare : rval -> rval -> int
val rval_to_string : Kaskade_graph.Graph.t -> rval -> string
(** Vertices render as [type#id(name)] when a [name] property exists. *)

val col_slot : string array -> string -> int option
(** Position of the first column with this name. *)

val col_index : table -> string -> int
(** [col_slot] over the table's columns; raises [Not_found]. *)

val n_rows : table -> int
val pp : Kaskade_graph.Graph.t -> Format.formatter -> table -> unit
(** Render at most 20 rows. *)
