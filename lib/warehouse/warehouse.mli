(** A durable, crash-safe QC-tree warehouse.

    Couples the base table, its QC-tree and their on-disk representation
    into one handle, so applications (and the [qct] CLI) do not have to keep
    the pieces consistent by hand.  A warehouse lives in a directory:

    {v
    <dir>/base.csv   the fact table (checkpoint image)
    <dir>/tree.qct   the QC-tree summary (checkpoint image)
    <dir>/manifest   generation number + CRC-32 of both images
    <dir>/wal.log    write-ahead journal of post-checkpoint mutations
    v}

    All mutating operations maintain the tree incrementally (never by
    recomputation) and keep the invariant that [tree w] is exactly the
    QC-tree of [table w].

    {2 Durability contract}

    Once a warehouse is attached to a directory (by {!open_dir} or a
    successful {!save}), every {!insert}/{!delete}/{!update} appends one
    {!Qc_core.Wal} frame per batch to [wal.log] and fsyncs it {e before}
    the in-memory structures are touched — the fsync is the commit point,
    so a crash at any instant loses at most the single batch whose frame
    never became durable, and never resurfaces a batch that was not
    acknowledged.

    {!save} is a checkpoint: both images and the manifest are written to
    temporaries, fsynced and renamed into place ([manifest] last — its
    rename is the atomic commit of the whole checkpoint), then the journal
    is truncated.  Journal records carry the generation number of the
    checkpoint they extend, so a crash between the manifest commit and the
    journal truncation cannot double-apply old records.

    {!open_dir} recovers automatically: it verifies both images against
    the manifest, rolls an interrupted checkpoint forward when its
    temporaries committed, rebuilds the tree from [base.csv] when
    [tree.qct] is missing or damaged, replays the journal's committed
    records and silently discards a torn tail.  What recovery did is
    reported in {!last_recovery} and on the [qc.warehouse] log source.
    Structural damage no crash can explain (a base table that matches no
    manifest, a journal with a bad header) raises the typed {!Error}.

    Every durability site is a named {!Qc_util.Failpoint}, so the crash
    suite can kill the process at each one and assert recovery.

    After a build the summary is {e frozen} into a {!Qc_core.Packed}
    structure that serves every point and range query; maintenance
    operations transparently thaw back to the mutable tree, apply the
    incremental algorithms, and refreeze.  [tree.qct] is written in the
    packed binary format; {!open_dir} also accepts the legacy text
    format and directories without a manifest (generation 0, no CRC
    validation). *)

open Qc_cube
open Qc_core

type t

(** Why a directory cannot be opened (or a durable write failed), as a
    typed value rather than a stringly [Sys_error]/[Failure].  Carried by
    {!Error}. *)
type error =
  | Missing_file of string  (** the directory or a required file is absent *)
  | Corrupt_base of { path : string; reason : string }
      (** [base.csv] is unreadable, or matches neither the manifest nor an
          in-flight checkpoint *)
  | Corrupt_tree of { path : string; reason : string }
      (** [tree.qct] is damaged {e and} the base it would be rebuilt from is
          unavailable (damage alone triggers a silent rebuild instead) *)
  | Corrupt_wal of { path : string; reason : string }
      (** the journal has damage no crash can produce (bad header, unknown
          tag, malformed CRC-valid payload) or replay failed *)
  | Corrupt_manifest of { path : string; reason : string }
  | Version_mismatch of { path : string; got : int }
      (** the manifest declares an unsupported format version *)
  | Io of string  (** an operating-system write/fsync failure *)

exception Error of error

val error_to_string : error -> string

val pp_error : Format.formatter -> error -> unit

(** What {!open_dir} had to do beyond a clean load.  Every field is
    reported independently, so a multi-action recovery (e.g. a torn tail
    {e and} an interrupted checkpoint in one open) surfaces all of its
    actions, not just the first. *)
type recovery = {
  replayed : int;  (** journal records applied over the checkpoint *)
  stale_skipped : int;
      (** records from a superseded generation, skipped — the residue of a
          crash between a checkpoint's manifest commit and its journal
          truncation; the next {!save} cleans them up *)
  torn_bytes : int;  (** bytes of torn journal tail discarded (all files) *)
  rebuilt_tree : bool;  (** [tree.qct] unusable; rebuilt from [base.csv] *)
  rolled_forward : bool;
      (** an interrupted checkpoint's temporaries were adopted *)
  segments : int;
      (** rotated journal segments found (an interrupted rolling refreeze
          left them; replayed or skipped by stamp, deleted at the next
          checkpoint) *)
}

val recovered_something : recovery -> bool
(** Whether the open found {e any} crash residue a checkpoint would clean
    up: a rebuilt tree, a roll-forward, torn bytes, stale records, or
    leftover segments.  The single source of truth for "does this
    directory need repair" — [qct recover] and {!stat.recovered} both
    report it. *)

val create : Table.t -> t
(** Build a fresh in-memory warehouse over a base table (constructs the
    tree).  Not attached to any directory — mutations are not journaled
    until the first {!save}. *)

val create_frozen : Table.t -> Packed.t -> t
(** {!create} with an externally built frozen summary, trusted to be the
    QC-tree of the table — the sharded builder ({!Sharded}) constructs
    per-shard images in parallel Domains and wraps each in a warehouse
    handle without rebuilding.  The mutable tree is thawed on demand, as
    after an {!open_dir} of a packed image. *)

val align_schema : t -> Schema.t -> bool
(** [align_schema w target] makes [w]'s dictionary code assignment agree
    with [target]'s: when they already agree (same values in the same
    order per dimension — the invariant both serial formats preserve)
    this is a cheap no-op returning [false]; otherwise the base table is
    re-encoded against [target] and the summary rebuilt, returning [true]
    and marking the recovery as a rebuild.  The divergent case arises
    when a shard's tree image was lost and rebuilt from [base.csv], whose
    value-appearance order need not match the saved dictionaries; the
    sharded composite requires one code space across all shards.
    @raise Error ([Corrupt_base]) when the dimension counts disagree —
    damage re-encoding cannot explain. *)

val open_dir : string -> t
(** Load (and, if needed, recover) a warehouse saved by {!save}.
    @raise Error when the directory does not hold a recoverable
    warehouse. *)

val save : t -> string -> unit
(** Checkpoint to a directory (created if missing): atomically replace both
    images and the manifest, then truncate the journal, delete any rotated
    journal segments, and bump the generation.  The warehouse is attached
    to [dir] afterwards.  On failure raises {!Error} ([Io]) and leaves
    both the directory and the in-memory state consistent: the directory
    holds either the old or the new checkpoint, and subsequent mutations
    journal against whichever generation the directory actually committed.
    @raise Invalid_argument while {!sealed}. *)

(** {2 Rolling refreeze}

    The streaming-ingestion checkpoint protocol: instead of a stop-the-world
    {!save}, the writer {!seal}s the warehouse (rotating the active journal
    into a [wal-<seq>.log] segment and fixing the target generation), hands
    the returned task to a background domain that runs {!run_refreeze}
    (freeze, serialize, stage, atomically commit — the same staged-rename
    protocol and failpoint sites as {!save}), and finally calls
    {!complete_refreeze} on the writer to adopt the outcome.  While sealed,
    {!insert} keeps journaling durably (stamped with the target generation)
    but buffers the in-memory application; queries keep answering from the
    pre-seal state.  A failed attempt degrades cleanly: the warehouse keeps
    extending the last good generation, the burned target stamp is never
    reused (committed generations may skip numbers), and recovery replays
    exactly the committed prefix whether or not the attempt landed. *)

type refreeze_task
(** A sealed snapshot: everything {!run_refreeze} needs, detached from the
    warehouse handle so it can cross domains. *)

val seal : t -> refreeze_task
(** Rotate the journal and seal the warehouse for a background refreeze.
    @raise Invalid_argument if already sealed or not attached.
    @raise Error ([Io]) if the rotation fails (the warehouse stays
    unsealed). *)

val sealed : t -> bool

val refreeze_target : refreeze_task -> int
(** The generation the task will commit. *)

val run_refreeze : refreeze_task -> (Packed.t, error) result
(** The background half: freeze the sealed tree, serialize both images,
    stage and commit them under the target generation, then delete the
    rotated segments.  Reads only the task (safe on another domain while
    the sealed writer keeps journaling); never raises on I/O failure —
    the error is returned for {!complete_refreeze} to degrade on. *)

type refreeze_outcome = {
  rf_committed : bool;
  rf_generation : int;  (** the committed generation the warehouse now extends *)
  rf_packed : Packed.t option;
      (** on a committed refreeze, the frozen image of the sealed state —
          what an MVCC server publishes for the new generation *)
}

val complete_refreeze : t -> refreeze_task -> (Packed.t, error) result -> refreeze_outcome
(** Unseal on the writer: determine whether the attempt actually committed
    (an [Error] may still have crossed the commit point — the directory is
    re-resolved), adopt the new generation if so, then apply the records
    buffered while sealed through the same materialization path crash
    replay uses.
    @raise Invalid_argument if [t] is not sealed with this task. *)

val list_segments : string -> (int * string) list
(** Rotated journal segments in [dir] as [(sequence, filename)], ordered
    by sequence — present only between a seal and the next committed
    checkpoint.  [qct wal] and the tests use this to inspect rotation
    state. *)

val attached_dir : t -> string option
(** The directory mutations are journaled to, once {!open_dir}/{!save} has
    attached one. *)

val checkpoint_generation : t -> int
(** The generation of the last committed checkpoint this warehouse
    extends (0 when detached or never saved).  What an MVCC server
    reports as the reader-visible generation. *)

val committed_generation : string -> int
(** The checkpoint generation {!open_dir} would resolve [dir] to (0 for a
    manifest-less legacy directory), without loading images or replaying
    the journal — the cheap half of recovery, used by [qct wal] to tell
    live journal records from stale ones.
    @raise Error as {!open_dir} does for an unresolvable directory. *)

val last_recovery : t -> recovery
(** What {!open_dir} did to produce this handle (all-zero for {!create}
    and for a clean open). *)

val table : t -> Table.t

val tree : t -> Qc_tree.t
(** The mutable working form, thawed from the frozen structure on first
    use.  Callers must not mutate it directly — use {!insert}/{!delete}. *)

val packed : t -> Packed.t
(** The frozen query structure; refrozen automatically after maintenance. *)

val schema : t -> Schema.t

val insert : t -> Table.t -> Maintenance.insert_stats
(** Batch-insert new facts (Algorithm 2).  Journaled before application
    when attached.  While {!sealed}, the batch is journaled durably but
    its in-memory application is deferred to {!complete_refreeze}; the
    returned stats are then all zero and queries keep answering from the
    pre-seal state.
    @raise Error ([Io]) if the journal append fails — the batch is then
    neither applied nor durable. *)

val insert_rows : t -> (string list * float) list -> Maintenance.insert_stats
(** {!insert} from decoded rows (dimension values + measure).  This is the
    ingest entry point: while {!sealed} it journals and buffers the rows
    {e without touching the live schema's dictionaries} (which the
    background refreeze domain is concurrently reading), so it is the only
    mutation that is safe to issue from the serving thread during a
    refreeze.  Unsealed, it encodes the rows against the live schema and
    behaves exactly like {!insert}.
    @raise Invalid_argument if a row's arity does not match the schema. *)

val delete : t -> Table.t -> Maintenance.delete_stats
(** Batch-delete existing facts.  Journaled before application when
    attached.
    @raise Invalid_argument if a row is not present (checked {e before}
    journaling, so an invalid batch is never logged), or while {!sealed}
    (a deferred delete could become invalid against the moving base by
    apply time; streaming ingestion is insert-only).
    @raise Error ([Io]) if the journal append fails. *)

val update : t -> old_rows:Table.t -> new_rows:Table.t ->
  Maintenance.delete_stats * Maintenance.insert_stats
(** Modification = deletion + insertion (two journal records). *)

val query : t -> Cell.t -> Agg.t option

val query_value : t -> Agg.func -> Cell.t -> float option

val range : t -> Query.range -> (Cell.t * Agg.t) list

val iceberg : t -> Agg.func -> threshold:float -> (Cell.t * Agg.t) list
(** Answered by {!Engine.Packed_backend.iceberg} on the frozen image, so
    in {!Cell.compare_dict} order.  Each image builds its own index, so a
    mutation (which refreezes) never serves a stale one. *)

val run_batch :
  ?jobs:int -> ?node_accesses:bool -> t -> Engine.query array -> Engine.batch
(** Serve a whole query batch from the frozen packed snapshot via
    {!Engine.run_batch} (packed backend, parallel across domains).  The
    snapshot is immutable, so mutations keep journaling to the WAL and
    refreezing concurrently; a batch answers against the snapshot current
    when it started. *)

type stat = {
  rows : int;  (** base-table tuples *)
  dims : int;
  classes : int;  (** quotient-cube classes stored in the tree *)
  nodes : int;  (** QC-tree nodes (root included) *)
  links : int;  (** drill-down links *)
  bytes : int;  (** size under the shared byte-cost model *)
  packed_bytes : int;  (** resident size of the frozen column arrays *)
  generation : int;  (** checkpoint generation of the attached directory *)
  wal_records : int;  (** live journal records since the last checkpoint *)
  replayed : int;  (** journal records replayed by {!open_dir} *)
  recovered : bool;
      (** {!open_dir} repaired something: rebuilt tree, rolled a checkpoint
          forward, or discarded a torn journal tail *)
}

val stats_record : t -> stat
(** The warehouse's size and durability figures as a structured record. *)

val stats : t -> string
(** One-line summary: rows, classes, nodes, links, bytes, generation and
    journal state (string form of {!stats_record}). *)

val stat_to_json : stat -> Qc_util.Jsonx.t

val stats_json : t -> string
(** {!stats_record} rendered as a compact JSON object. *)

exception Check_failed of Check.report
(** Raised by a mutating operation when the post-maintenance self-check
    (enabled with {!set_self_check}) finds violations. *)

val set_self_check : t -> bool -> unit
(** Enable or disable the post-maintenance audit hook (off by default).
    When enabled, every {!insert}, {!delete} and {!update} is followed by a
    full deep {!Check.run} against the new base table; violations raise
    {!Check_failed} so a maintenance bug is caught at the operation that
    introduced it, not at some later query.  Costs a DFS over the base table
    per mutation — meant for tests, debugging and low-write deployments. *)

val check : t -> Check.report
(** One deep audit of the current state ({!Check.run} with the warehouse's
    base table as oracle), without mutating anything. *)

val self_check : t -> (unit, string) result
(** Verify the invariant: the tree validates and its class set (upper
    bounds with aggregates) coincides with a tree rebuilt from the table.
    Intended for tests and for troubleshooting deployments; costs one
    rebuild. *)
