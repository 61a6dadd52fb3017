(** Query answering over QC-trees (paper Section 4).

    Point queries (Algorithm 3) trace at most one root-to-node path: the
    query's non-[*] values are consumed left to right through tree edges and
    drill-down links; when no labeled step exists, the search hops to the
    unique child on the current node's last dimension (Lemma 2).  The path
    reached is the query cell's class upper bound, whose node carries the
    aggregate.

    Range queries (Algorithm 4) expand one range dimension at a time and
    prune every prefix that cannot reach a cube cell.

    Iceberg queries use an index over class aggregates; constrained iceberg
    queries combine it with a range scan using either of the two strategies
    sketched in the paper. *)

open Qc_cube

(** {1 Typed errors}

    One failure vocabulary shared by every backend — re-exported as
    {!Engine.error} — replacing the historical mix of [option] returns and
    exceptions.  The legacy entry points remain as thin wrappers. *)

type error =
  | Arity_mismatch of { expected : int; got : int }
      (** the query names a different number of dimensions than the schema *)
  | Empty_cover of Cell.t
      (** the cell's cover set is empty — it is not in the cube *)
  | Unsupported of { backend : string; operation : string }
      (** the chosen backend cannot answer this operation at all *)
  | Bad_query of string  (** the query text failed to parse *)

val error_equal : error -> error -> bool

val error_to_string : ?schema:Schema.t -> error -> string
(** Human-readable rendering; with [schema] cells are decoded, otherwise
    they print as raw value codes. *)

val point_result : Qc_tree.t -> Cell.t -> (Agg.t, error) result
(** [point_result tree cell] is the aggregate summary of [cell];
    [Error (Empty_cover _)] when the cell is not in the cube,
    [Error (Arity_mismatch _)] when the cell's width disagrees with the
    schema. *)

val point_value_result : Qc_tree.t -> Agg.func -> Cell.t -> (float, error) result

val point : Qc_tree.t -> Cell.t -> Agg.t option
  [@@deprecated "use point_result or Engine.run_one"]
(** Deprecated wrapper around {!point_result} ([Error _] collapses to
    [None]); kept so pre-Engine callers compile.  New code must use
    {!point_result} or go through [Engine] — qclint's
    [deprecated-query-api] rule flags new uses. *)

val point_value : Qc_tree.t -> Agg.func -> Cell.t -> float option
  [@@deprecated "use point_value_result or Engine.run_one"]
(** Deprecated convenience wrapper reading one aggregate function off
    {!point}. *)

val locate : Qc_tree.t -> Cell.t -> Qc_tree.node option
(** The class upper-bound node of a cell, or [None] for empty cover.  This
    is the primitive shared by query answering and incremental
    maintenance. *)

(** {1 EXPLAIN} *)

type step_kind =
  | Tree_edge  (** a labeled tree edge consumed one query dimension *)
  | Link  (** a drill-down link consumed one query dimension *)
  | Last_dim_hop  (** Lemma 2: hopped to the last-dimension child while
                      searching for a later dimension's label *)
  | Descend  (** query dimensions exhausted; descending last-dimension
                 children to the class node *)

type step = { kind : step_kind; target : Qc_tree.node }

type outcome =
  | Hit
  | Miss_no_route of int
      (** no edge, link or hop could consume the query value on this
          dimension — the cell is not in the cube *)
  | Miss_no_class  (** the reached prefix has no class node below it *)
  | Miss_not_dominating
      (** a class was reached but its bound disagrees with the query cell on
          an instantiated dimension (empty cover) *)

type explanation = {
  cell : Cell.t;
  steps : step list;  (** every node transition, in root-to-answer order *)
  outcome : outcome;
  result : (Qc_tree.node * Agg.t) option;  (** [Some] iff [outcome = Hit] *)
}

val explain : Qc_tree.t -> Cell.t -> explanation
(** Run Algorithm 3 for [cell] recording the exact root-to-answer path.
    [explain] and {!point} always agree: the result is [Some] exactly when
    {!point} answers, and the recorded steps are the nodes the search
    touches (by Lemma 2 at most one edge/link per instantiated query
    dimension, plus last-dimension hops). *)

val nodes_touched : explanation -> int
(** [1] (the root) plus one per step — the unit of Figure 13's work
    accounting; equals {!node_accesses} of the same cell. *)

val pp_explanation : Qc_tree.t -> Format.formatter -> explanation -> unit
(** Render the path with decoded dimension values and step kinds (the
    output of [qct explain]). *)

type range = int array array
(** A range query: one entry per dimension; [ [||] ] means [*], a singleton
    means a point constraint, several values enumerate the range (the paper's
    set form handles both numeric and hierarchical ranges). *)

val range : Qc_tree.t -> range -> (Cell.t * Agg.t) list
  [@@deprecated "use range_result or Engine.run_one"]
(** All cells in the given range with non-empty cover, with their
    aggregates.  Each returned cell is the range instantiation that matched
    (with [*] in unconstrained dimensions).
    @raise Invalid_argument on arity mismatch; {!range_result} reports it as
    a typed error instead. *)

val range_result : Qc_tree.t -> range -> ((Cell.t * Agg.t) list, error) result
(** {!range} with the arity check reported as [Error (Arity_mismatch _)]
    instead of an exception.  An empty result list is [Ok []] — unlike a
    point query, an empty range is not an error. *)

val range_of_cells : Qc_tree.t -> range -> Cell.t list
(** The cross-product of a range as point-query cells — the naive plan the
    paper compares against; used by tests and benchmarks. *)

(** {1 Iceberg queries} *)

type measure_index
(** A sorted index from aggregate values to class nodes — the stand-in for
    the B+-tree on the measure attribute the paper describes. *)

val make_index : Qc_tree.t -> Agg.func -> measure_index

val iceberg : measure_index -> threshold:float -> (Cell.t * Agg.t) list
(** Pure iceberg query: every class upper bound whose aggregate is at least
    [threshold], in ascending value order.  A NaN value is at least no
    threshold, and a NaN threshold answers []. *)

val iceberg_range :
  ?strategy:[ `Filter | `Mark ] ->
  Qc_tree.t ->
  measure_index ->
  range ->
  threshold:float ->
  (Cell.t * Agg.t) list
(** Constrained iceberg query.  [`Filter] runs the range query and filters
    by the threshold (the paper's choice 1); [`Mark] first marks the class
    nodes above the threshold plus their ancestors via the index and answers
    the range query inside the marked subtree (choice 2).  Both return the
    same answers. *)

val node_accesses : Qc_tree.t -> Cell.t -> int
(** Number of tree nodes the point query for this cell visits.  The paper's
    Figure 13 discussion contrasts this with Dwarf, which always visits one
    node per dimension. *)

(** {1 Packed fast path}

    Step-for-step mirrors of the algorithms above over a frozen
    {!Packed.t}.  The packed search visits the same nodes in the same order
    as the mutable search, returns identical answers, reports identical
    {!node_accesses_packed}, and bumps the same metrics counters. *)

val point_result_packed : Packed.t -> Cell.t -> (Agg.t, error) result

val point_value_result_packed : Packed.t -> Agg.func -> Cell.t -> (float, error) result

val range_result_packed : Packed.t -> range -> ((Cell.t * Agg.t) list, error) result

val point_packed : Packed.t -> Cell.t -> Agg.t option
  [@@deprecated "use point_result_packed or Engine.run_one"]
(** Deprecated wrapper around {!point_result_packed}. *)

val point_value_packed : Packed.t -> Agg.func -> Cell.t -> float option
  [@@deprecated "use point_value_result_packed or Engine.run_one"]
(** Deprecated wrapper around {!point_value_result_packed}. *)

val locate_packed : Packed.t -> Cell.t -> int option
(** The class upper-bound node id of a cell, or [None] for empty cover. *)

val range_packed : Packed.t -> range -> (Cell.t * Agg.t) list
  [@@deprecated "use range_result_packed or Engine.run_one"]
(** Algorithm 4 over the packed layout; result cells, aggregates and order
    are identical to {!range} on the tree the structure was frozen from. *)

type packed_step = { pkind : step_kind; pnode : int }

type packed_explanation = {
  pcell : Cell.t;
  psteps : packed_step list;
  poutcome : outcome;
  presult : (int * Agg.t) option;
}

val explain_packed : Packed.t -> Cell.t -> packed_explanation
(** Algorithm 3 over the packed layout, recording the path.  Step kinds,
    outcome and visited cells match {!explain} on the source tree. *)

val nodes_touched_packed : packed_explanation -> int

val pp_packed_explanation : Packed.t -> Format.formatter -> packed_explanation -> unit

val node_accesses_packed : Packed.t -> Cell.t -> int
(** Equals {!node_accesses} of the same cell on the tree the packed
    structure was frozen from. *)
