(** A frozen, read-only QC-tree flattened into contiguous integer and float
    columns.

    [of_tree] renumbers the nodes of a built {!Qc_tree.t} in canonical
    preorder — root first, children in ascending (dimension, label) order —
    and stores the structure as flat arrays: per-node dimension/label/parent
    codes, CSR-style child and link spans sorted by a packed
    [(dim lsl 20) lor label] key for binary search, and dense aggregate
    columns.  The layout is immutable; maintenance thaws with {!to_tree},
    applies the incremental algorithms, and refreezes.

    Navigation primitives mirror the mutable tree's exactly ([find_step] ≍
    {!Qc_tree.find_entry}, [last_child] ≍ {!Qc_tree.last_dim_child}), so the
    packed query path in {!Query} visits the same nodes in the same order
    and reports identical [node_accesses]. *)

open Qc_cube

type t

val of_tree : Qc_tree.t -> t
(** Freeze a built tree.  The result is canonical: two trees with equal
    {!Qc_tree.canonical_string} freeze to identical columns. *)

val to_tree : t -> Qc_tree.t
(** Thaw back to a mutable tree (canonically equal to the tree frozen). *)

val of_arrays :
  schema:Schema.t ->
  dim:int array ->
  label:int array ->
  parent:int array ->
  aggs:Agg.t option array ->
  links:(int * int * int * int) array ->
  t
(** Validated constructor from raw per-node columns plus [(src, dim, label,
    dst)] links, used by deserialization.  Checks the structural invariants
    (preorder parents, strictly increasing dimensions, label ranges, no
    duplicate or edge-shadowing labels out of a node).
    @raise Invalid_argument when the input is not a well-formed QC-tree. *)

(** {1 Navigation} *)

val root : t -> int
(** Always [0]. *)

val dim : t -> int -> int
(** Dimension of a node's incoming label; [-1] at the root. *)

val label : t -> int -> int

val parent : t -> int -> int
(** Parent node id; [-1] at the root. *)

val agg : t -> int -> Agg.t option
(** The class aggregate; [None] on prefix nodes. *)

val has_agg : t -> int -> bool
(** Whether the node is a class (carries an aggregate), without
    materialising the {!Agg.t} record. *)

type step = Edge of int | Link of int

val find_step : t -> int -> int -> int -> step option
(** [find_step t n dim label] is the outgoing step of [n] carrying
    [(dim, label)] — a binary search of the node's child span, then its link
    span.  Mirrors {!Qc_tree.find_entry}. *)

val step_dst : t -> int -> int -> int -> int
(** Allocation-free {!find_step}: the destination node (edge first, then
    link), or [-1].  For hot paths that do not need the step kind. *)

val find_child : t -> int -> int -> int -> int
(** Tree-edge lookup only; [-1] when absent. *)

val find_link : t -> int -> int -> int -> int
(** Link lookup only; [-1] when absent. *)

val last_child : t -> int -> int
(** The child on the node's last (maximal) dimension — the hop of Lemma 2;
    [-1] on leaves.  With the span sorted by (dimension, label) this is just
    the span's last entry. *)

val iter_children : (int -> unit) -> t -> int -> unit
(** Visit a node's children in ascending (dimension, label) order. *)

val iter_links : (int -> int -> int -> unit) -> t -> int -> unit
(** [iter_links f t n] calls [f dim label dst] per outgoing link of [n]. *)

val node_cell : t -> int -> Cell.t
(** Reconstruct the cell spelled by the root-to-node path. *)

val iter_at_least : (Cell.t -> Agg.t -> unit) -> t -> Agg.func -> threshold:float -> unit
(** [iter_at_least f t func ~threshold] calls [f] with the upper bound and
    aggregate of every class whose [Agg.value func] is at least
    [threshold], in ascending value order.  A class whose value is NaN
    never qualifies, and nothing meets a NaN threshold.

    The first call for a [func] builds that function's index: the class
    nodes sorted by value, one pass and one sort, 8 bytes per class.  It is
    kept with the image and shared by every domain, so later calls cost a
    binary search plus the k answers. *)

(** {1 Statistics} *)

val schema : t -> Schema.t
val n_nodes : t -> int
val n_links : t -> int
val n_classes : t -> int

val bytes : t -> int
(** Size under the shared logical byte-cost model of {!Qc_util.Size} —
    identical to {!Qc_tree.bytes} of the same tree, for Figure 12/15
    comparability. *)

val resident_bytes : t -> int
(** Actual size of the flat columns (8 bytes per array slot) — what the
    packed representation costs in memory, reported by the benchmarks.
    Excludes the iceberg indexes {!iter_at_least} builds on demand. *)

(** {1 Raw column view}

    Exposed for {!Check}, which re-derives every structural invariant from
    the columns themselves, and for the negative tests that corrupt a
    frozen tree in place to prove the checker notices.  The arrays are the
    live ones, {e not} copies: treat the view as read-only everywhere
    outside [test/]. *)

type raw = {
  r_dim : int array;  (** per-node dimension; [-1] at the root *)
  r_label : int array;
  r_parent : int array;
  r_child_start : int array;  (** CSR offsets into [r_child_*] *)
  r_child_key : int array;  (** [(dim lsl 20) lor label], ascending per span *)
  r_child_node : int array;
  r_link_start : int array;
  r_link_key : int array;
  r_link_node : int array;
  r_agg_id : int array;  (** [-1] on prefix nodes, else index into [r_agg_*] *)
  r_agg_count : int array;
  r_agg_sum : float array;
  r_agg_min : float array;
  r_agg_max : float array;
  r_hash_mask : int;
  r_hash_key : int array;  (** step index; [-1] = empty slot *)
  r_hash_dst : int array;
}

val raw : t -> raw
