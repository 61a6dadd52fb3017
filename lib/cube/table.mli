(** Base tables: dictionary-encoded multidimensional relations.

    A base table holds the fact tuples a cube summarizes: one row = one cell
    without [*] values plus one measure.  Duplicate dimension combinations
    are allowed (their measures aggregate, as in Case 1 of the insertion
    algorithm).  The table also provides the index-array partitioning
    primitive shared by BUC, Dwarf and the quotient-cube DFS of Algorithms 1
    and 2. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val n_rows : t -> int

val n_dims : t -> int

val add_row : t -> string list -> float -> unit
(** [add_row t values m] encodes and appends one tuple.  Arity must match the
    schema. *)

val add_encoded : t -> Cell.t -> float -> unit
(** Append an already-encoded tuple (no [*] values allowed).  The cell is
    copied. *)

val tuple : t -> int -> Cell.t
(** [tuple t i] is row [i]'s dimension vector.  The returned array is the
    internal one — do not mutate. *)

val measure : t -> int -> float

val append : t -> t -> unit
(** [append t delta] adds all rows of [delta] (same schema required) to
    [t]. *)

val remove_rows : t -> (int -> bool) -> t
(** [remove_rows t keep_out] is a fresh table with every row [i] such that
    [keep_out i] is [false]. *)

val sub : t -> int list -> t
(** [sub t rows] is a fresh table containing the given rows of [t]. *)

val copy : t -> t

val iter : (Cell.t -> float -> unit) -> t -> unit

val find_row : t -> Cell.t -> int option
(** First row whose dimension vector equals the given base cell. *)

val cover_agg : t -> Cell.t -> Agg.t
(** [cover_agg t c] aggregates the cover set of cell [c] by scanning the
    table — the ground-truth oracle used in tests and for MIN/MAX repair
    after deletions. *)

val all_indices : t -> int array
(** A fresh identity index array [0 .. n_rows - 1]. *)

val index_buffers : t -> int array array
(** [n_dims t + 1] fresh index arrays of length [n_rows t] for one
    partitioning search: the first is {!all_indices}, the others are
    scratch.  The searches built on {!partition} group dimension [j] into
    the array at index [j + 1] and, below a group, group only dimensions
    after [j], so no slice still in use is overwritten. *)

val partition :
  t -> src:int array -> dst:int array -> lo:int -> hi:int -> dim:int -> (int -> int -> int -> unit) -> unit
(** [partition t ~src ~dst ~lo ~hi ~dim f] writes the rows
    [src.(lo) .. src.(hi-1)] into [dst.(lo) .. dst.(hi-1)] grouped by their
    value in dimension [dim], then calls [f v lo' hi'] once per group, in
    increasing value order, where [dst.(lo') .. dst.(hi'-1)] are the rows
    with value [v].  The partition is stable: rows keep their [src] order
    within a group, so a slice that starts in ascending row order keeps it
    at every depth.  [src] and [dst] outside [\[lo, hi)] are not written,
    and [f] may recurse into deeper buffers.  The method follows from the
    slice: insertion sort for at most 16 rows, a counting sort when the
    slice's value range is at most 4 times its row count, a merge sort
    otherwise. *)

val agg_of_range : t -> int array -> lo:int -> hi:int -> Agg.t
(** Aggregate of the rows designated by an index-array slice, folded in
    slice order exactly as {!cover_agg} folds: over an ascending slice the
    two are bit-identical. *)
