open Qc_cube
module Trace = Qc_util.Trace

(* ------------------------------------------------------------------ *)
(* Typed errors                                                       *)
(* ------------------------------------------------------------------ *)

type error =
  | Missing_file of string
  | Corrupt_base of { path : string; reason : string }
  | Corrupt_tree of { path : string; reason : string }
  | Corrupt_wal of { path : string; reason : string }
  | Corrupt_manifest of { path : string; reason : string }
  | Version_mismatch of { path : string; got : int }
  | Io of string

exception Error of error

let error_to_string = function
  | Missing_file path -> Printf.sprintf "%s: no such warehouse file or directory" path
  | Corrupt_base { path; reason } -> Printf.sprintf "%s: corrupt base table (%s)" path reason
  | Corrupt_tree { path; reason } -> Printf.sprintf "%s: corrupt tree image (%s)" path reason
  | Corrupt_wal { path; reason } -> Printf.sprintf "%s: corrupt journal (%s)" path reason
  | Corrupt_manifest { path; reason } -> Printf.sprintf "%s: corrupt manifest (%s)" path reason
  | Version_mismatch { path; got } ->
    Printf.sprintf "%s: unsupported manifest version %d" path got
  | Io msg -> Printf.sprintf "I/O failure: %s" msg

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Warehouse.Error (%s)" (error_to_string e))
    | _ -> None)

let io_error_of_exn = function
  | Qc_util.Failpoint.Injected label ->
    Some (Io (Printf.sprintf "injected failure at failpoint %s" label))
  | Sys_error msg -> Some (Io msg)
  | Unix.Unix_error (err, fn, arg) ->
    Some (Io (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)))
  | _ -> None

let wrap_io f =
  try f ()
  with e -> (match io_error_of_exn e with Some err -> raise (Error err) | None -> raise e)

(* ------------------------------------------------------------------ *)
(* Failpoint sites                                                    *)
(* ------------------------------------------------------------------ *)

(* Every durability-relevant instruction in the warehouse has a stable
   label here, so the crash suite can enumerate and kill each one.  The
   save.* prefixes expand through Qc_util.Durable into .tmp-write /
   .fsync / .rename sites; wal expands into .append / .fsync. *)
let () =
  List.iter Qc_util.Failpoint.register
    [
      "wal.append";
      "wal.fsync";
      "save.base.tmp-write";
      "save.base.fsync";
      "save.base.rename";
      "save.tree.tmp-write";
      "save.tree.fsync";
      "save.tree.rename";
      "save.manifest.tmp-write";
      "save.manifest.fsync";
      "save.manifest.rename";
      "save.dir-fsync.pre-manifest";
      "save.dir-fsync.post-manifest";
      "save.wal-truncate";
      (* rolling-refreeze protocol steps (the staged writes inside a
         refreeze reuse the save.* sites above) *)
      "refreeze.rotate";
      "refreeze.freeze";
      "refreeze.segment-delete";
      (* hit by Ingest between a refreeze commit landing and the new
         generation becoming reader-visible; registered here so it is
         enumerable wherever the warehouse links *)
      "refreeze.publish";
    ]

(* ------------------------------------------------------------------ *)
(* State                                                              *)
(* ------------------------------------------------------------------ *)

type recovery = {
  replayed : int;
  stale_skipped : int;
  torn_bytes : int;
  rebuilt_tree : bool;
  rolled_forward : bool;
  segments : int;
}

let no_recovery =
  {
    replayed = 0;
    stale_skipped = 0;
    torn_bytes = 0;
    rebuilt_tree = false;
    rolled_forward = false;
    segments = 0;
  }

(* The warehouse keeps the summary in two forms: the frozen [Packed.t],
   which answers all point/range/iceberg queries, and the mutable
   [Qc_tree.t] the incremental maintenance algorithms require.  After a
   build (or an open from the packed on-disk format) only the frozen form
   is guaranteed present; the mutable form is thawed transparently on the
   first maintenance operation (or self-check, which walks tree nodes) and
   kept warm afterwards.  Every mutation refreezes, so [packed] is never
   stale when present. *)
(* A detached snapshot of everything the background half of a rolling
   refreeze needs.  [rf_tree]/[rf_base] are the warehouse's live
   structures, safe to read from another domain only because the sealed
   writer stops mutating them until [complete_refreeze]. *)
type refreeze_task = {
  rf_dir : string;
  rf_target : int;  (* the generation the refreeze commits *)
  rf_tree : Qc_core.Qc_tree.t;
  rf_base : Table.t;
}

type t = {
  mutable base : Table.t;
  mutable tree_ : Qc_core.Qc_tree.t option;  (** thawed working form *)
  mutable packed_ : Qc_core.Packed.t option;  (** frozen query form *)
  mutable self_check_enabled : bool;
  mutable dir : string option;  (** attached directory, once saved/opened *)
  mutable ckpt_generation : int;  (** generation of the last committed checkpoint *)
  mutable gen_hwm : int;
      (** highest generation any checkpoint attempt ever targeted or any
          journal record ever carried — the next checkpoint targets
          [gen_hwm + 1], so a failed refreeze's stamps are never reused
          (committed generations may skip numbers) *)
  mutable wal_stamp : int;
      (** generation stamped on new journal records: [ckpt_generation]
          normally, the refreeze target while sealed *)
  mutable sealed_ : refreeze_task option;  (** in-flight background refreeze *)
  mutable pending : Qc_core.Wal.record list;
      (** journaled-but-unapplied inserts accumulated while sealed, in
          reverse append order; applied at [complete_refreeze] through the
          same record-materialization path crash replay uses *)
  mutable wal_out : out_channel option;
  mutable wal_pos : int;  (** length of the journal's valid prefix on disk *)
  mutable wal_records : int;  (** live records appended since the checkpoint *)
  mutable recovery : recovery;
}

exception Check_failed of Qc_core.Check.report

let log = Logs.Src.create "qc.warehouse" ~doc:"QC-tree warehouse operations"

module Log = (val Logs.src_log log)

let tree t =
  match t.tree_ with
  | Some tr -> tr
  | None ->
    let tr =
      match t.packed_ with
      | Some p ->
        Log.debug (fun m -> m "thawing packed tree for node-level access");
        Trace.with_span ~cat:"warehouse" "warehouse.thaw" (fun () -> Qc_core.Packed.to_tree p)
      | None -> assert false
    in
    t.tree_ <- Some tr;
    tr

let packed t =
  match t.packed_ with
  | Some p -> p
  | None ->
    let p =
      Trace.with_span ~cat:"warehouse" "warehouse.freeze" (fun () ->
          Qc_core.Packed.of_tree (tree t))
    in
    t.packed_ <- Some p;
    p

let create base =
  let tree = Qc_core.Qc_tree.of_table base in
  Log.info (fun m ->
      m "built warehouse: %d rows, %d classes" (Table.n_rows base)
        (Qc_core.Qc_tree.n_classes tree));
  {
    base;
    tree_ = Some tree;
    packed_ = Some (Qc_core.Packed.of_tree tree);
    self_check_enabled = false;
    dir = None;
    ckpt_generation = 0;
    gen_hwm = 0;
    wal_stamp = 0;
    sealed_ = None;
    pending = [];
    wal_out = None;
    wal_pos = 0;
    wal_records = 0;
    recovery = no_recovery;
  }

let create_frozen base packed =
  {
    base;
    tree_ = None;
    packed_ = Some packed;
    self_check_enabled = false;
    dir = None;
    ckpt_generation = 0;
    gen_hwm = 0;
    wal_stamp = 0;
    sealed_ = None;
    pending = [];
    wal_out = None;
    wal_pos = 0;
    wal_records = 0;
    recovery = no_recovery;
  }

let table t = t.base

let schema t = Table.schema t.base

(* Two schemas assign the same codes iff each dimension's dictionary holds
   the same values in the same order (codes are allocation order). *)
let dicts_agree s1 s2 =
  Schema.n_dims s1 = Schema.n_dims s2
  &&
  let rec dims i =
    i >= Schema.n_dims s1
    ||
    let v1 = Qc_util.Dict.values (Schema.dict s1 i)
    and v2 = Qc_util.Dict.values (Schema.dict s2 i) in
    Array.length v1 = Array.length v2
    && Array.for_all2 String.equal v1 v2
    && dims (i + 1)
  in
  dims 0

let align_schema t target =
  let own = Table.schema t.base in
  if Schema.n_dims own <> Schema.n_dims target then
    raise
      (Error
         (Corrupt_base
            {
              path = (match t.dir with Some d -> d | None -> "<memory>");
              reason =
                Printf.sprintf "dimension count %d disagrees with the composite's %d"
                  (Schema.n_dims own) (Schema.n_dims target);
            }));
  if dicts_agree own target then false
  else begin
    let base = Table.create target in
    Table.iter
      (fun cell m ->
        let values =
          List.init (Schema.n_dims own) (fun i -> Schema.decode_value own i cell.(i))
        in
        Table.add_row base values m)
      t.base;
    let tree = Qc_core.Qc_tree.of_table base in
    t.base <- base;
    t.tree_ <- Some tree;
    t.packed_ <- Some (Qc_core.Packed.of_tree tree);
    t.recovery <- { t.recovery with rebuilt_tree = true };
    Log.warn (fun m ->
        m "re-encoded %d rows against the composite dictionary and rebuilt the summary"
          (Table.n_rows base));
    true
  end

let attached_dir t = t.dir

let checkpoint_generation t = t.ckpt_generation

let last_recovery t = t.recovery

let set_self_check t on = t.self_check_enabled <- on

let check t = Qc_core.Check.run ~deep:true ~base:t.base (tree t)

(* Post-maintenance hook: a full deep audit after every mutation.  Costs a
   DFS over the (new) base table plus a freeze and round-trip, so it is off
   by default and opted into per warehouse ([qct --self-check], tests). *)
let post_maintenance_check t op =
  if t.self_check_enabled then begin
    let report = check t in
    if not (Qc_core.Check.ok report) then begin
      Log.err (fun m ->
          m "self-check after %s found %d violation(s)" op
            (List.length report.Qc_core.Check.violations));
      raise (Check_failed report)
    end;
    Log.debug (fun m -> m "self-check after %s passed" op)
  end

let refreeze t =
  t.packed_ <-
    Some
      (Trace.with_span ~cat:"warehouse" "warehouse.freeze" (fun () ->
           Qc_core.Packed.of_tree (tree t)))

(* ------------------------------------------------------------------ *)
(* Directory layout and manifest                                      *)
(* ------------------------------------------------------------------ *)

let base_file dir = Filename.concat dir "base.csv"

let tree_file dir = Filename.concat dir "tree.qct"

let manifest_file dir = Filename.concat dir "manifest"

let wal_file dir = Filename.concat dir "wal.log"

let manifest_version = 1

(* The manifest is the checkpoint's atomic commit record: generation
   number plus CRC-32/size of both images, self-checksummed.  Text, one
   field per line, so a hexdump of a damaged directory stays legible. *)
type manifest = {
  m_generation : int;
  base_crc : int;
  base_size : int;
  tree_crc : int;
  tree_size : int;
}

let manifest_to_string m =
  let body =
    Printf.sprintf "qcmanifest %d\ngeneration %d\nbase %08x %d\ntree %08x %d\n"
      manifest_version m.m_generation m.base_crc m.base_size m.tree_crc m.tree_size
  in
  body ^ Printf.sprintf "crc %08x\n" (Qc_util.Crc32.string body)

let manifest_of_string data =
  let fail reason = Result.Error (`Malformed reason) in
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' data) with
  | [ l0; l1; l2; l3; l4 ] -> (
    let field2 line key =
      match String.split_on_char ' ' line with
      | [ k; v ] when String.equal k key -> Some v
      | _ -> None
    and field3 line key =
      match String.split_on_char ' ' line with
      | [ k; a; b ] when String.equal k key -> Some (a, b)
      | _ -> None
    in
    let hex h = int_of_string_opt ("0x" ^ h) in
    match field2 l0 "qcmanifest" with
    | None -> fail "missing qcmanifest header line"
    | Some v -> (
      match int_of_string_opt v with
      | None -> fail "unreadable format version"
      | Some v when v <> manifest_version -> Result.Error (`Version v)
      | Some _ -> (
        let body = String.concat "\n" [ l0; l1; l2; l3 ] ^ "\n" in
        match (field2 l1 "generation", field3 l2 "base", field3 l3 "tree", field2 l4 "crc") with
        | Some g, Some (bc, bs), Some (tc, ts), Some self -> (
          match (int_of_string_opt g, hex bc, int_of_string_opt bs, hex tc,
                 int_of_string_opt ts, hex self) with
          | Some m_generation, Some base_crc, Some base_size, Some tree_crc,
            Some tree_size, Some self_crc ->
            if self_crc <> Qc_util.Crc32.string body then fail "self-checksum mismatch"
            else if m_generation < 0 || base_size < 0 || tree_size < 0 then
              fail "negative field"
            else Ok { m_generation; base_crc; base_size; tree_crc; tree_size }
          | _ -> fail "unreadable numeric field")
        | _ -> fail "missing field line")))
  | _ -> fail "wrong line count"

(* Strict read: absent is [None]; damage raises the typed error. *)
let read_manifest path =
  if not (Sys.file_exists path) then None
  else
    match manifest_of_string (wrap_io (fun () -> Qc_util.Durable.read_file path)) with
    | Ok m -> Some m
    | Result.Error (`Version got) -> raise (Error (Version_mismatch { path; got }))
    | Result.Error (`Malformed reason) -> raise (Error (Corrupt_manifest { path; reason }))

(* Lenient read for in-flight temporaries: anything unusable is [None]
   (a torn manifest.tmp is the expected residue of a crash mid-save). *)
let read_manifest_lenient path =
  if not (Sys.file_exists path) then None
  else
    match wrap_io (fun () -> Qc_util.Durable.read_file path) with
    | exception Error _ -> None
    | data -> ( match manifest_of_string data with Ok m -> Some m | Result.Error _ -> None)

(* Which checkpoint does [dir] resolve to, given the base image it holds?
   The main manifest wins when the base matches it; otherwise a valid
   manifest.tmp whose base CRC matches is an interrupted checkpoint that
   committed its base rename — adopt it (roll-forward).  [None] means the
   base matches nothing: structural damage, not a crash residue. *)
let resolve_checkpoint dir ~base_crc ~strict =
  let main =
    if strict then read_manifest (manifest_file dir)
    else read_manifest_lenient (manifest_file dir)
  in
  match main with
  | Some m when m.base_crc = base_crc -> `Manifest m
  | main -> (
    match read_manifest_lenient (manifest_file dir ^ ".tmp") with
    | Some m when m.base_crc = base_crc -> `Rolled_forward m
    | _ -> ( match main with None -> `Legacy | Some _ -> `Unresolved))

(* ------------------------------------------------------------------ *)
(* Journal plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let wal_header_len = String.length Qc_core.Wal.header

(* Byte length of the journal's decodable prefix (0 when absent or when
   even the header is unusable). *)
let wal_valid_prefix path =
  if not (Sys.file_exists path) then 0
  else
    match Qc_core.Wal.scan (Qc_util.Durable.read_file path) with
    | Ok s -> s.consumed
    | Error _ -> 0

(* The journal's append handle, opened lazily on the first attached
   mutation.  Before handing it out, make the on-disk file end exactly at
   the valid prefix: recreate it when the header itself is missing or
   unusable, truncate away any torn tail so fresh frames never land after
   garbage. *)
let wal_channel t dir =
  match t.wal_out with
  | Some oc -> oc
  | None ->
    let path = wal_file dir in
    wrap_io (fun () ->
        if t.wal_pos < wal_header_len then begin
          Qc_util.Durable.write_file path Qc_core.Wal.header;
          Qc_util.Durable.fsync_dir dir;
          t.wal_pos <- wal_header_len
        end
        else begin
          let size = (Unix.stat path).Unix.st_size in
          if size < t.wal_pos then
            raise
              (Error
                 (Io
                    (Printf.sprintf "%s shrank below its committed prefix (%d < %d bytes)" path
                       size t.wal_pos)));
          if size > t.wal_pos then Qc_util.Durable.truncate path t.wal_pos
        end);
    let oc = wrap_io (fun () -> Qc_util.Durable.open_append path) in
    t.wal_out <- Some oc;
    oc

let close_wal t =
  match t.wal_out with
  | Some oc ->
    close_out_noerr oc;
    t.wal_out <- None
  | None -> ()

(* Rotated journal segments in [dir], ordered by sequence number.  They
   exist only between a refreeze's rotation and the next committed
   checkpoint (which deletes them); recovery replays them before the
   active journal. *)
let list_segments dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           match Qc_core.Wal.segment_seq name with
           | Some seq -> Some (seq, name)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let delete_segments dir =
  match list_segments dir with
  | [] -> ()
  | segs ->
    List.iter (fun (_, name) -> Qc_util.Durable.remove (Filename.concat dir name)) segs;
    Qc_util.Durable.fsync_dir dir

(* Append one record and fsync it — the commit point of a mutation.  On
   any failure the frame may be partly on disk but was never acknowledged,
   so cut the file back to the last valid prefix before reporting the
   typed error; the batch is then neither applied nor durable.  Returns
   the journaled record ([None] when nothing was written) so the sealed
   path can buffer exactly what replay would see. *)
let log_record t (record : Qc_core.Wal.record) =
  match t.dir with
  | None -> None
  | Some dir -> (
    let frame = Qc_core.Wal.encode record in
    let oc = wal_channel t dir in
    match
      Trace.with_span ~cat:"wal"
        ~args:
          [
            ("bytes", Trace.Int (String.length frame));
            ("rows", Trace.Int (List.length record.rows));
          ]
        "wal.append"
        (fun () -> Qc_util.Durable.append ~fp:"wal" oc frame)
    with
    | () ->
      t.wal_pos <- t.wal_pos + String.length frame;
      t.wal_records <- t.wal_records + 1;
      Some record
    | exception e ->
      close_wal t;
      (try Qc_util.Durable.truncate (wal_file dir) t.wal_pos with
      | Unix.Unix_error _ | Sys_error _ -> ());
      (match io_error_of_exn e with Some err -> raise (Error err) | None -> raise e))

let log_mutation t op delta =
  match t.dir with
  | None -> None
  | Some _ when Table.n_rows delta = 0 -> None
  | Some _ -> log_record t (Qc_core.Wal.record_of_table ~generation:t.wal_stamp op delta)

(* ------------------------------------------------------------------ *)
(* Maintenance                                                        *)
(* ------------------------------------------------------------------ *)

let run_insert t delta =
  let tr = tree t in
  t.packed_ <- None;
  Qc_core.Maintenance.insert_batch tr ~base:t.base ~delta

let run_delete t delta =
  let tr = tree t in
  t.packed_ <- None;
  let new_base, stats = Qc_core.Maintenance.delete_batch tr ~base:t.base ~delta in
  t.base <- new_base;
  stats

(* Mirror of Maintenance.delete_batch's multiset matching, run before the
   journal append so an impossible batch is rejected without being
   logged (a logged batch must always replay). *)
let validate_delete base delta =
  if Table.n_rows delta > 0 then begin
    let claimed = Array.make (Table.n_rows base) false in
    let by_cell : int list Cell.Tbl.t = Cell.Tbl.create (Table.n_rows base) in
    for i = Table.n_rows base - 1 downto 0 do
      let cell = Table.tuple base i in
      Cell.Tbl.replace by_cell cell
        (i :: Option.value ~default:[] (Cell.Tbl.find_opt by_cell cell))
    done;
    for i = 0 to Table.n_rows delta - 1 do
      let cell = Table.tuple delta i and m = Table.measure delta i in
      let rec claim = function
        | [] -> invalid_arg "Warehouse.delete: delta row not present in base"
        | j :: rest ->
          if (not claimed.(j)) && Table.measure base j = m then claimed.(j) <- true
          else claim rest
      in
      claim (Option.value ~default:[] (Cell.Tbl.find_opt by_cell cell))
    done
  end

let insert t delta =
  match t.sealed_ with
  | Some _ ->
    (* Sealed: the background refreeze is reading [t.base]/[t.tree_], so
       the batch is journaled (durable, stamped with the refreeze target)
       and buffered; it is applied in memory at [complete_refreeze].  The
       returned stats are therefore all zero — the structural work has not
       happened yet. *)
    (match log_mutation t Qc_core.Wal.Insert delta with
    | Some r -> t.pending <- r :: t.pending
    | None -> ());
    { Qc_core.Maintenance.updated = 0; carved = 0; fresh = 0; located = 0 }
  | None ->
    ignore (log_mutation t Qc_core.Wal.Insert delta);
    let stats = run_insert t delta in
    refreeze t;
    Log.info (fun m ->
        m "inserted %d rows (%d updated, %d carved, %d fresh classes)" (Table.n_rows delta)
          stats.updated stats.carved stats.fresh);
    post_maintenance_check t "insert";
    stats

let insert_rows t rows =
  let n_dims = Schema.n_dims (Table.schema t.base) in
  List.iter
    (fun (values, _) ->
      if List.length values <> n_dims then
        invalid_arg
          (Printf.sprintf "Warehouse.insert_rows: expected %d dimension values, got %d" n_dims
             (List.length values)))
    rows;
  match t.sealed_ with
  | Some _ ->
    (* Sealed: build the record straight from the decoded rows.  Routing
       through a [Table.t] would allocate dictionary codes in the live
       schema, which the background domain is concurrently reading — this
       path must not touch shared structures, only the journal and the
       pending buffer. *)
    (match rows with
    | [] -> ()
    | _ :: _ -> (
      let record = { Qc_core.Wal.generation = t.wal_stamp; op = Qc_core.Wal.Insert; rows } in
      match log_record t record with
      | Some r -> t.pending <- r :: t.pending
      | None -> ()));
    { Qc_core.Maintenance.updated = 0; carved = 0; fresh = 0; located = 0 }
  | None ->
    let delta = Table.create (Table.schema t.base) in
    List.iter (fun (values, m) -> Table.add_row delta values m) rows;
    insert t delta

let delete t delta =
  (* Deletions validate against the live base, which is frozen while a
     background refreeze reads it — and a delete buffered against a moving
     base could become invalid by apply time.  Streaming ingestion is
     insert-only; interactive deletes must wait for the refreeze. *)
  if Option.is_some t.sealed_ then
    invalid_arg "Warehouse.delete: a background refreeze is in flight";
  validate_delete t.base delta;
  ignore (log_mutation t Qc_core.Wal.Delete delta);
  let stats = run_delete t delta in
  refreeze t;
  Log.info (fun m ->
      m "deleted %d rows (%d classes removed, %d merged)" (Table.n_rows delta) stats.removed
        stats.merged);
  post_maintenance_check t "delete";
  stats

let update t ~old_rows ~new_rows =
  let dstats = delete t old_rows in
  let istats = insert t new_rows in
  (dstats, istats)

let query t cell = Result.to_option (Qc_core.Query.point_result_packed (packed t) cell)

let query_value t func cell =
  Result.to_option (Qc_core.Query.point_value_result_packed (packed t) func cell)

let range t q =
  match Qc_core.Query.range_result_packed (packed t) q with
  | Ok cells -> cells
  | Error e -> invalid_arg (Qc_core.Query.error_to_string e)

let iceberg t func ~threshold =
  match Qc_core.Engine.Packed_backend.iceberg (packed t) func ~threshold with
  | Ok cells -> cells
  | Error e -> invalid_arg (Qc_core.Query.error_to_string e)

(* Batches always run over the frozen snapshot: [Engine.run_batch] fans
   the queries out across domains, and because the packed structure is
   immutable, concurrent mutations on the coordinating domain keep
   journaling to the WAL and refreezing without invalidating a batch in
   flight — the batch just answers against the snapshot it started on. *)
let run_batch ?jobs ?node_accesses t queries =
  Qc_core.Engine.run_batch ?jobs ?node_accesses
    (module Qc_core.Engine.Packed_backend)
    (packed t) queries

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

type stat = {
  rows : int;
  dims : int;
  classes : int;
  nodes : int;
  links : int;
  bytes : int;
  packed_bytes : int;
  generation : int;
  wal_records : int;
  replayed : int;
  recovered : bool;
}

(* Every action [open_dir] had to take that the next checkpoint makes
   unnecessary.  Stale journal records (a crash between a checkpoint's
   manifest commit and its journal truncation) and leftover rotated
   segments count: the directory works as-is but still carries crash
   residue a [save] would clean up — under-reporting them made
   [qct recover --dry-run] call such a directory clean. *)
let recovered_something r =
  r.rebuilt_tree || r.rolled_forward || r.torn_bytes > 0 || r.stale_skipped > 0 || r.segments > 0

let stats_record t =
  let p = packed t in
  {
    rows = Table.n_rows t.base;
    dims = Table.n_dims t.base;
    classes = Qc_core.Packed.n_classes p;
    nodes = Qc_core.Packed.n_nodes p;
    links = Qc_core.Packed.n_links p;
    bytes = Qc_core.Packed.bytes p;
    packed_bytes = Qc_core.Packed.resident_bytes p;
    generation = t.ckpt_generation;
    wal_records = t.wal_records;
    replayed = t.recovery.replayed;
    recovered = recovered_something t.recovery;
  }

let stats t =
  let s = stats_record t in
  Printf.sprintf
    "%d rows | %d classes | %d nodes | %d links | %d bytes (%d packed) | gen %d | %d wal record(s)%s"
    s.rows s.classes s.nodes s.links s.bytes s.packed_bytes s.generation s.wal_records
    (if s.recovered then Printf.sprintf " | recovered (%d replayed)" s.replayed
     else if s.replayed > 0 then Printf.sprintf " | %d replayed" s.replayed
     else "")

let stat_to_json s =
  Qc_util.Jsonx.Obj
    [
      ("rows", Qc_util.Jsonx.Int s.rows);
      ("dims", Qc_util.Jsonx.Int s.dims);
      ("classes", Qc_util.Jsonx.Int s.classes);
      ("nodes", Qc_util.Jsonx.Int s.nodes);
      ("links", Qc_util.Jsonx.Int s.links);
      ("bytes", Qc_util.Jsonx.Int s.bytes);
      ("packed_bytes", Qc_util.Jsonx.Int s.packed_bytes);
      ("generation", Qc_util.Jsonx.Int s.generation);
      ("wal_records", Qc_util.Jsonx.Int s.wal_records);
      ("replayed", Qc_util.Jsonx.Int s.replayed);
      ("recovered", Qc_util.Jsonx.Bool s.recovered);
    ]

let stats_json t = Qc_util.Jsonx.to_string (stat_to_json (stats_record t))

(* ------------------------------------------------------------------ *)
(* Checkpoint (save)                                                  *)
(* ------------------------------------------------------------------ *)

(* A failed checkpoint may or may not have committed — the commit point
   (the manifest rename) is buried in the middle of the sequence.
   Re-derive the directory's actual state so subsequent journal records
   carry the generation recovery will resolve the directory to; getting
   this wrong would make recovery skip committed records as stale. *)
let resync_after_failed_save t dir ~gen' ~base_crc =
  let attached_here = match t.dir with Some d -> String.equal d dir | None -> false in
  match
    (try Some (Qc_util.Durable.read_file (base_file dir)) with Sys_error _ -> None)
  with
  | None -> ()
  | Some base_data -> (
    let crc = Qc_util.Crc32.string base_data in
    match resolve_checkpoint dir ~base_crc:crc ~strict:false with
    | `Unresolved | `Legacy -> ()
    | `Manifest m | `Rolled_forward m ->
      if attached_here then begin
        if m.m_generation <> t.ckpt_generation then begin
          t.ckpt_generation <- m.m_generation;
          t.wal_stamp <- m.m_generation;
          t.gen_hwm <- (if m.m_generation > t.gen_hwm then m.m_generation else t.gen_hwm);
          t.wal_records <- 0
        end
      end
      else if m.m_generation = gen' && m.base_crc = base_crc then begin
        (* the checkpoint into a fresh directory committed before the
           failure: attach, or mutations would silently stop journaling *)
        close_wal t;
        t.dir <- Some dir;
        t.ckpt_generation <- gen';
        t.wal_stamp <- gen';
        t.gen_hwm <- (if gen' > t.gen_hwm then gen' else t.gen_hwm);
        t.wal_records <- 0;
        t.wal_pos <- wal_valid_prefix (wal_file dir)
      end)

(* Stage the three files and commit the renames — the shared middle of a
   foreground [save] and a background refreeze.  All three temporaries
   are durable before any rename, so an interrupted checkpoint can
   always be resolved to one side or rolled forward from its
   temporaries; the manifest rename is the atomic commit point. *)
let stage_and_commit ~dir ~base_data ~tree_data ~gen' =
  let manifest_data =
    manifest_to_string
      {
        m_generation = gen';
        base_crc = Qc_util.Crc32.string base_data;
        base_size = String.length base_data;
        tree_crc = Qc_util.Crc32.string tree_data;
        tree_size = String.length tree_data;
      }
  in
  Trace.with_span ~cat:"wal" "ckpt.stage" (fun () ->
      Qc_util.Durable.write_tmp ~fp:"save.base" (base_file dir) base_data;
      Qc_util.Durable.write_tmp ~fp:"save.tree" (tree_file dir) tree_data;
      Qc_util.Durable.write_tmp ~fp:"save.manifest" (manifest_file dir) manifest_data);
  Trace.with_span ~cat:"wal" "ckpt.commit" (fun () ->
      Qc_util.Durable.commit_tmp ~fp:"save.base" (base_file dir);
      Qc_util.Durable.commit_tmp ~fp:"save.tree" (tree_file dir);
      Qc_util.Failpoint.hit "save.dir-fsync.pre-manifest";
      Qc_util.Durable.fsync_dir dir;
      (* the manifest rename is the checkpoint's atomic commit point *)
      Qc_util.Durable.commit_tmp ~fp:"save.manifest" (manifest_file dir);
      Qc_util.Failpoint.hit "save.dir-fsync.post-manifest";
      Qc_util.Durable.fsync_dir dir)

let save t dir =
  if Option.is_some t.sealed_ then
    invalid_arg "Warehouse.save: a background refreeze is in flight";
  Trace.with_span ~cat:"warehouse"
    ~args:[ ("generation", Trace.Int (t.gen_hwm + 1)) ]
    "warehouse.checkpoint"
  @@ fun () ->
  wrap_io (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  let base_data = Qc_data.Csv.to_string t.base in
  let tree_data = Qc_core.Serial.to_packed_string (packed t) in
  let base_crc = Qc_util.Crc32.string base_data in
  (* Target one above the high-water mark, not [ckpt_generation + 1]: a
     failed refreeze may have stamped journal records with
     [ckpt_generation + 1] already, and committing under a stamp that is
     out in the wild would make recovery double-apply those records. *)
  let gen' = t.gen_hwm + 1 in
  (* the handle would point into the file about to be truncated *)
  close_wal t;
  (try
     stage_and_commit ~dir ~base_data ~tree_data ~gen';
     (* committed: reset the journal to an empty header and drop any
        rotated segments (their records' effects are in the image) *)
     Trace.with_span ~cat:"wal" "wal.truncate" (fun () ->
         Qc_util.Failpoint.hit "save.wal-truncate";
         Qc_util.Durable.write_file (wal_file dir) Qc_core.Wal.header;
         Qc_util.Durable.fsync_dir dir;
         delete_segments dir)
   with e ->
     resync_after_failed_save t dir ~gen' ~base_crc;
     (match io_error_of_exn e with Some err -> raise (Error err) | None -> raise e));
  t.dir <- Some dir;
  t.ckpt_generation <- gen';
  t.gen_hwm <- gen';
  t.wal_stamp <- gen';
  t.wal_pos <- wal_header_len;
  t.wal_records <- 0;
  Log.info (fun m -> m "checkpointed warehouse to %s (generation %d)" dir gen')

(* ------------------------------------------------------------------ *)
(* Rolling refreeze (seal / background / complete)                     *)
(* ------------------------------------------------------------------ *)

let sealed t = Option.is_some t.sealed_

let refreeze_target task = task.rf_target

(* Seal the warehouse for a background refreeze: rotate the active
   journal out of the way, pick the target generation, and hand back a
   snapshot task.  From here until [complete_refreeze] the writer must
   not mutate [base]/[tree] (inserts are journaled + buffered; deletes
   and saves are refused), so the background domain can read them. *)
let seal t =
  if Option.is_some t.sealed_ then invalid_arg "Warehouse.seal: already sealed";
  let dir =
    match t.dir with
    | Some d -> d
    | None -> invalid_arg "Warehouse.seal: detached warehouse (save it first)"
  in
  let tr = tree t in
  close_wal t;
  wrap_io (fun () ->
      let next_seq = match List.rev (list_segments dir) with (s, _) :: _ -> s + 1 | [] -> 0 in
      let wal = wal_file dir in
      Qc_util.Failpoint.hit "refreeze.rotate";
      if Sys.file_exists wal then
        Qc_util.Durable.rename wal (Filename.concat dir (Qc_core.Wal.segment_name next_seq));
      Qc_util.Durable.write_file wal Qc_core.Wal.header;
      Qc_util.Durable.fsync_dir dir);
  t.wal_pos <- wal_header_len;
  t.wal_records <- 0;
  let task = { rf_dir = dir; rf_target = t.gen_hwm + 1; rf_tree = tr; rf_base = t.base } in
  t.gen_hwm <- task.rf_target;
  t.wal_stamp <- task.rf_target;
  t.sealed_ <- Some task;
  Log.info (fun m -> m "sealed for refreeze to generation %d" task.rf_target);
  task

(* The background half: freeze, serialize, stage + commit, clean up
   rotated segments.  Pure in the warehouse record — safe to run on
   another domain while the sealed writer keeps journaling.  Never
   raises on I/O failure: the caller degrades to the last good
   generation and retries. *)
let run_refreeze task =
  Trace.with_span ~cat:"warehouse"
    ~args:[ ("generation", Trace.Int task.rf_target) ]
    "refreeze.run"
  @@ fun () ->
  try
    Qc_util.Failpoint.hit "refreeze.freeze";
    let p =
      Trace.with_span ~cat:"warehouse" "refreeze.freeze" (fun () ->
          Qc_core.Packed.of_tree task.rf_tree)
    in
    let base_data = Qc_data.Csv.to_string task.rf_base in
    let tree_data = Qc_core.Serial.to_packed_string p in
    stage_and_commit ~dir:task.rf_dir ~base_data ~tree_data ~gen':task.rf_target;
    (* Committed.  The rotated segments are now redundant; a kill between
       here and the last unlink only leaves stale segments behind, which
       both recovery and the next checkpoint skip/clean. *)
    Qc_util.Failpoint.hit "refreeze.segment-delete";
    delete_segments task.rf_dir;
    Ok p
  with e -> (
    match io_error_of_exn e with Some err -> Result.Error err | None -> raise e)

(* Did the attempt actually commit?  [Ok _] proves it; on [Error] the
   commit point may still have been crossed (e.g. the injected failure
   fired during segment deletion), so re-resolve the directory — and
   finish an interrupted manifest rename while at it, closing the window
   where only [manifest.tmp] records the commit. *)
let refreeze_committed task result =
  match result with
  | Ok _ -> true
  | Result.Error _ -> (
    match
      (try Some (Qc_util.Durable.read_file (base_file task.rf_dir)) with Sys_error _ -> None)
    with
    | None -> false
    | Some base_data -> (
      match
        resolve_checkpoint task.rf_dir ~base_crc:(Qc_util.Crc32.string base_data) ~strict:false
      with
      | `Manifest m -> m.m_generation = task.rf_target
      | `Rolled_forward m when m.m_generation = task.rf_target ->
        (try
           Qc_util.Durable.commit_tmp (manifest_file task.rf_dir);
           Qc_util.Durable.fsync_dir task.rf_dir
         with Sys_error _ | Unix.Unix_error _ -> ());
        true
      | `Rolled_forward _ | `Legacy | `Unresolved -> false))

type refreeze_outcome = {
  rf_committed : bool;
  rf_generation : int;  (** the committed generation the warehouse now extends *)
  rf_packed : Qc_core.Packed.t option;
      (** on a committed refreeze, the frozen image at the sealed state —
          what an MVCC server publishes for the new generation *)
}

(* Unseal: adopt the attempt's outcome, then apply the buffered records
   through the same materialization path crash replay uses, so the
   in-memory state converges with what a reopen would reconstruct. *)
let complete_refreeze t task result =
  (match t.sealed_ with
  | Some s when s.rf_target = task.rf_target -> ()
  | Some _ | None -> invalid_arg "Warehouse.complete_refreeze: not sealed with this task");
  let committed = refreeze_committed task result in
  let committed_packed =
    match (committed, result) with
    | false, _ -> None
    | true, Ok p -> Some p
    | true, Result.Error _ ->
      (* the attempt errored after crossing the commit point (e.g. during
         segment deletion): the sealed tree is exactly the committed image,
         so refreeze it — the MVCC server still gets this generation *)
      Some (Qc_core.Packed.of_tree task.rf_tree)
  in
  if committed then begin
    t.ckpt_generation <- task.rf_target;
    t.packed_ <- committed_packed
  end;
  (* failed attempt: new records keep extending the old checkpoint; the
     target stamp stays burned (gen_hwm) so the next attempt skips it *)
  t.wal_stamp <- t.ckpt_generation;
  t.sealed_ <- None;
  let buffered = List.rev t.pending in
  t.pending <- [];
  List.iter
    (fun (r : Qc_core.Wal.record) ->
      let delta = Qc_core.Wal.table_of_record (Table.schema t.base) r in
      match r.op with
      | Qc_core.Wal.Insert -> ignore (run_insert t delta)
      | Qc_core.Wal.Delete -> ignore (run_delete t delta))
    buffered;
  (match buffered with [] -> () | _ :: _ -> refreeze t);
  Log.info (fun m ->
      m "refreeze to generation %d %s (%d buffered record(s) applied)" task.rf_target
        (if committed then "committed" else "failed; serving stays on the last good generation")
        (List.length buffered));
  {
    rf_committed = committed;
    rf_generation = t.ckpt_generation;
    rf_packed = committed_packed;
  }

(* ------------------------------------------------------------------ *)
(* Open with recovery                                                 *)
(* ------------------------------------------------------------------ *)

(* Shared entry of [open_dir] and [committed_generation]: read the base
   image and decide which checkpoint the directory resolves to. *)
let resolve_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then raise (Error (Missing_file dir));
  let base_path = base_file dir in
  if not (Sys.file_exists base_path) then raise (Error (Missing_file base_path));
  let base_data = wrap_io (fun () -> Qc_util.Durable.read_file base_path) in
  match resolve_checkpoint dir ~base_crc:(Qc_util.Crc32.string base_data) ~strict:true with
  | (`Manifest _ | `Rolled_forward _ | `Legacy) as r -> (base_data, r)
  | `Unresolved ->
    raise
      (Error
         (Corrupt_base
            {
              path = base_path;
              reason = "content matches neither the manifest nor an in-flight checkpoint";
            }))

let committed_generation dir =
  match resolve_dir dir with
  | _, (`Manifest m | `Rolled_forward m) -> m.m_generation
  | _, `Legacy -> 0

let open_dir dir =
  Trace.with_span ~cat:"warehouse" "warehouse.open" @@ fun () ->
  let base_path = base_file dir in
  let base_data, resolution = resolve_dir dir in
  let rolled_forward, active =
    match resolution with
    | `Manifest m -> (false, Some m)
    | `Rolled_forward m ->
      Log.warn (fun f ->
          f "rolling interrupted checkpoint forward to generation %d" m.m_generation);
      (true, Some m)
    | `Legacy -> (false, None)
  in
  let ckpt_generation = match active with None -> 0 | Some m -> m.m_generation in
  (* Pick the tree image: [tree.qct] when it matches the manifest (or when
     there is no manifest to check against); under a rolled-forward
     checkpoint the fresh image may still be sitting in the temporary. *)
  let tree_path = tree_file dir in
  let read_if_exists path =
    if Sys.file_exists path then Some (wrap_io (fun () -> Qc_util.Durable.read_file path))
    else None
  in
  let tree_data =
    match active with
    | None -> read_if_exists tree_path
    | Some m -> (
      match read_if_exists tree_path with
      | Some d when Qc_util.Crc32.string d = m.tree_crc -> Some d
      | main -> (
        match read_if_exists (tree_path ^ ".tmp") with
        | Some d when Qc_util.Crc32.string d = m.tree_crc -> Some d
        | _ ->
          if Option.is_some main then
            Log.warn (fun f -> f "%s does not match the manifest checksum" tree_path);
          None))
  in
  (* Decode defensively: structural damage to the image is recoverable
     (the tree is derived data), so any failure selects the rebuild path
     instead of raising. *)
  let decoded =
    match tree_data with
    | None -> None
    | Some data ->
      let is_packed =
        String.length data >= 4
        && String.equal (String.sub data 0 4) Qc_core.Serial.packed_magic
      in
      if is_packed && not (Qc_core.Check.ok (Qc_core.Check.check_bytes data)) then begin
        Log.warn (fun f -> f "%s fails the structural byte audit" tree_path);
        None
      end
      else (
        try Some (Qc_core.Serial.of_string_any data)
        with Qc_core.Serial.Error e ->
          Log.warn (fun f ->
              f "%s does not decode: %s" tree_path (Qc_core.Serial.error_to_string e));
          None)
  in
  let raw =
    try Qc_data.Csv.of_string base_data
    with Failure reason -> raise (Error (Corrupt_base { path = base_path; reason }))
  in
  (* Re-encode the CSV rows against the summary's schema, so warehouse,
     table and tree share one schema instance (both serial formats
     preserve dictionary codes, so the re-encode assigns identical
     codes).  A dimension-count disagreement means the image belongs to
     some other table: treat it as damage and rebuild. *)
  let reencode schema =
    let raw_schema = Table.schema raw in
    if Schema.n_dims raw_schema <> Schema.n_dims schema then None
    else begin
      let base = Table.create schema in
      Table.iter
        (fun cell m ->
          let values =
            List.init (Schema.n_dims raw_schema) (fun i ->
                Schema.decode_value raw_schema i cell.(i))
          in
          Table.add_row base values m)
        raw;
      Some base
    end
  in
  let rebuild () = (Some (Qc_core.Qc_tree.of_table raw), None, raw, true) in
  let tree_, packed_, base, rebuilt_tree =
    match decoded with
    | Some (`Packed p) -> (
      match reencode (Qc_core.Packed.schema p) with
      | Some base -> (None, Some p, base, false)
      | None -> rebuild ())
    | Some (`Tree tr) -> (
      match reencode (Qc_core.Qc_tree.schema tr) with
      | Some base -> (Some tr, None, base, false)
      | None -> rebuild ())
    | None -> rebuild ()
  in
  if rebuilt_tree then
    Log.warn (fun f ->
        f "rebuilt the QC-tree from %s (%d rows)" base_path (Table.n_rows base));
  let w =
    {
      base;
      tree_;
      packed_;
      self_check_enabled = false;
      dir = Some dir;
      ckpt_generation;
      gen_hwm = ckpt_generation;
      wal_stamp = ckpt_generation;
      sealed_ = None;
      pending = [];
      wal_out = None;
      wal_pos = 0;
      wal_records = 0;
      recovery = no_recovery;
    }
  in
  (* Replay the journal's committed suffix: rotated segments in sequence
     order, then the active file — file order within each, which is the
     order the effects were originally applied.  A record extends the
     resolved checkpoint iff its stamp is >= the checkpoint generation
     (equal in steady state; one above it when a sealed refreeze never
     committed, in which case its buffered records must be revived).
     Records stamped below it are a superseded checkpoint attempt's
     leftovers and are skipped rather than double-applied.  A torn tail is
     the expected residue of a crash mid-append and is discarded;
     structural damage a crash cannot produce raises. *)
  let wal_path = wal_file dir in
  let replayed = ref 0 and stale_skipped = ref 0 and torn_bytes = ref 0 in
  let gen_hwm = ref ckpt_generation in
  let segments = list_segments dir in
  let replay_file ~path ~active data =
    match Qc_core.Wal.scan data with
    | Error c ->
      raise (Error (Corrupt_wal { path; reason = Qc_core.Wal.corruption_to_string c }))
    | Ok s ->
      if active then w.wal_pos <- s.consumed;
      (match s.torn with
      | None -> ()
      | Some (offset, c) ->
        let torn = String.length data - offset in
        torn_bytes := !torn_bytes + torn;
        Log.warn (fun f ->
            f "discarding %d-byte torn journal tail in %s (%s)" torn path
              (Qc_core.Wal.corruption_to_string c)));
      let live = ref 0 in
      List.iter
        (fun (r : Qc_core.Wal.record) ->
          if r.generation > !gen_hwm then gen_hwm := r.generation;
          if r.generation < ckpt_generation then incr stale_skipped
          else begin
            let corrupt reason = Error (Corrupt_wal { path; reason }) in
            let delta =
              try Qc_core.Wal.table_of_record (Table.schema w.base) r
              with Invalid_argument reason -> raise (corrupt reason)
            in
            (try
               match r.op with
               | Qc_core.Wal.Insert -> ignore (run_insert w delta)
               | Qc_core.Wal.Delete -> ignore (run_delete w delta)
             with Invalid_argument reason -> raise (corrupt ("replay failed: " ^ reason)));
            incr replayed;
            incr live
          end)
        s.records;
      if active then w.wal_records <- !live
  in
  Trace.with_span ~cat:"wal" "wal.replay" (fun () ->
      List.iter
        (fun (_, name) ->
          let path = Filename.concat dir name in
          match read_if_exists path with
          | None -> ()
          | Some data -> replay_file ~path ~active:false data)
        segments;
      (match read_if_exists wal_path with
      | None -> ()
      | Some data -> replay_file ~path:wal_path ~active:true data);
      Trace.add_attr "records" (Trace.Int !replayed));
  w.gen_hwm <- !gen_hwm;
  w.recovery <-
    {
      replayed = !replayed;
      stale_skipped = !stale_skipped;
      torn_bytes = !torn_bytes;
      rebuilt_tree;
      rolled_forward;
      segments = List.length segments;
    };
  if recovered_something w.recovery || !replayed > 0 then
    Log.info (fun f ->
        f "recovery for %s: %d replayed, %d stale skipped, %d torn bytes%s%s" dir !replayed
          !stale_skipped !torn_bytes
          (if rebuilt_tree then ", tree rebuilt" else "")
          (if rolled_forward then ", checkpoint rolled forward" else ""));
  Log.info (fun f ->
      f "opened warehouse %s: %d rows (generation %d)" dir (Table.n_rows w.base) ckpt_generation);
  w

let self_check t =
  let tr = tree t in
  match Qc_core.Qc_tree.validate tr with
  | Result.Error e -> Result.Error e
  | Ok () ->
    (* The class set (upper bounds and aggregates) must coincide with a
       fresh rebuild; links are checked structurally by [validate] and
       behaviourally by the test suite (after deletions a few redundant but
       harmless links may remain, so canonical equality is not required
       here). *)
    let rebuilt = Qc_core.Qc_tree.of_table t.base in
    let errors = ref [] in
    Qc_core.Qc_tree.iter_classes
      (fun _ ub agg ->
        match Qc_core.Qc_tree.find_path tr ub with
        | Some node -> (
          match node.Qc_core.Qc_tree.agg with
          | Some a when Agg.approx_equal a agg -> ()
          | Some _ -> errors := "aggregate mismatch" :: !errors
          | None -> errors := "missing class" :: !errors)
        | None -> errors := "missing class path" :: !errors)
      rebuilt;
    if Qc_core.Qc_tree.n_classes tr <> Qc_core.Qc_tree.n_classes rebuilt then
      errors := "class count differs from rebuild" :: !errors;
    (* the frozen and mutable forms must agree whenever both exist *)
    (match (!errors, t.packed_) with
    | [], Some p
      when Qc_core.Qc_tree.canonical_string (Qc_core.Packed.to_tree p)
           <> Qc_core.Qc_tree.canonical_string tr ->
      errors := [ "packed form disagrees with the mutable tree" ]
    | _ -> ());
    (match !errors with [] -> Ok () | e :: _ -> Result.Error e)
