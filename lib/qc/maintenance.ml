open Qc_cube
module Metrics = Qc_util.Metrics
module Trace = Qc_util.Trace

let log = Logs.Src.create "qc.maint" ~doc:"QC-tree incremental maintenance"

module Log = (val Logs.src_log log)

(* Work counters of Algorithm 2 and batch deletion: classes updated in
   place, split (carved), freshly created, merged away or removed, plus the
   point-query locates and link repairs the patches cost — the units of the
   paper's Figure 14 discussion. *)
let m_updated = Metrics.counter "maint.classes_updated"

let m_carved = Metrics.counter "maint.classes_carved"

let m_fresh = Metrics.counter "maint.classes_fresh"

let m_located = Metrics.counter "maint.locates"

let m_repairs = Metrics.counter "maint.link_repairs"

let m_retargets = Metrics.counter "maint.link_retargets"

let m_removed = Metrics.counter "maint.classes_removed"

let m_merged = Metrics.counter "maint.classes_merged"

type insert_stats = {
  updated : int;
  carved : int;
  fresh : int;
  located : int;
}

type status =
  | Update of Qc_tree.node  (** case 1: the old upper bound covers the delta *)
  | Carve of Qc_tree.node  (** cases 2/3: a new bound splits off the old class *)
  | Fresh  (** the visited cell was not in the old cube *)

type record = {
  id : int;
  lb : Cell.t;
  ub : Cell.t;  (** the class upper bound in the {e updated} cube *)
  child : int;
  delta_agg : Agg.t;
  base_agg : Agg.t;  (** aggregate of the old tuples the class covers *)
  status : status;
  k : int;  (** the dimension expanded to reach this visit (-1 at the root) *)
  expandable : bool;
      (** false when the bound-jump prune rule fired: a reconstruction's DFS
          would not expand this instance *)
  delta_values : (int, unit) Hashtbl.t array;
      (** for carve records: per-dimension value sets of the delta partition,
          used when planning drill-down repairs *)
}

let truncate cell limit = Array.mapi (fun i v -> if i < limit then v else Cell.all) cell

(* Upper-bound jump within an index-array slice of a table. *)
let jump table idx ~lo ~hi cell =
  let d = Array.length cell in
  let ub = Cell.copy cell in
  for j = 0 to d - 1 do
    if ub.(j) = Cell.all then begin
      let v0 = (Table.tuple table idx.(lo)).(j) in
      let rec shared i =
        i >= hi || ((Table.tuple table idx.(i)).(j) = v0 && shared (i + 1))
      in
      if shared (lo + 1) then ub.(j) <- v0
    end
  done;
  ub

(* Add-or-retarget a drill-down connection.  An existing tree edge always
   wins (Definition 1 forbids a parallel link); an existing link pointing
   elsewhere is retargeted when [force] is set, else kept. *)
let upsert_link tree ~force ~src ~dim ~label ~dst =
  match Qc_tree.find_edge tree src dim label with
  | Some _ -> ()
  | None -> (
    match Qc_tree.find_edge_or_link tree src dim label with
    | Some n when n == dst -> ()
    | Some _ when not force -> ()
    | Some _ ->
      Qc_tree.remove_link tree ~src ~dim ~label;
      Qc_tree.add_link tree ~src ~dim ~label ~dst
    | None -> Qc_tree.add_link tree ~src ~dim ~label ~dst)

(* Definition-1 connection between two upper bounds: labeled by dimension
   [dim], from [child_ub]'s prefix before [dim] to [ub]'s prefix through
   it. *)
let connect tree ~force child_ub dim label ub =
  match
    (Qc_tree.find_path tree (truncate child_ub dim),
     Qc_tree.find_path tree (truncate ub (dim + 1)))
  with
  | Some src, Some dst ->
    let already_tree_edge = match dst.Qc_tree.parent with Some p -> p == src | None -> false in
    if not already_tree_edge then upsert_link tree ~force ~src ~dim ~label ~dst
  | _ -> invalid_arg "Maintenance.connect: missing path prefix"

(* Propagate the rows of [table] through the tree, restricted to the
   ancestors of [targets], and return the cover rows of each target node.
   One pass replaces a per-class scan of the whole table. *)
let covers_for_nodes tree table targets =
  let marked = Hashtbl.create 256 in
  let rec mark (n : Qc_tree.node) =
    if not (Hashtbl.mem marked n.nid) then begin
      Hashtbl.replace marked n.nid ();
      Option.iter mark n.parent
    end
  in
  List.iter mark targets;
  let wanted = Hashtbl.create 256 in
  List.iter (fun (n : Qc_tree.node) -> Hashtbl.replace wanted n.nid ()) targets;
  let out : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let rec walk (node : Qc_tree.node) rows =
    if Hashtbl.mem marked node.nid then begin
      if Hashtbl.mem wanted node.nid then Hashtbl.replace out node.nid rows;
      List.iter
        (fun (child : Qc_tree.node) ->
          if Hashtbl.mem marked child.nid then
            let sub =
              List.filter (fun i -> (Table.tuple table i).(child.dim) = child.label) rows
            in
            walk child sub)
        node.children
    end
  in
  walk (Qc_tree.root tree) (List.init (Table.n_rows table) Fun.id);
  out

(* Phase 1 of Algorithm 2: depth-first search over the delta table.  The
   search mirrors what a full reconstruction's DFS would do on the merged
   table, restricted to cells whose cover set gains delta tuples: the class
   upper bound of a visited cell [c] in the updated cube is
   [meet(old_ub(c), delta_ub(c))], and the recursion expands the [*]
   dimensions of that final bound over the delta partition. *)
let delta_search tree delta =
  let n = Table.n_rows delta in
  let d = Table.n_dims delta in
  let records = ref [] in
  let located = ref 0 in
  if n > 0 then begin
    let bufs = Table.index_buffers delta in
    let counter = ref 0 in
    (* The partition of [c] is [bufs.(k + 1)] in [\[lo, hi)], as in
       [Dfs.visit]. *)
    let rec dfs c lo hi k chdid =
      let idx = bufs.(k + 1) in
      let delta_agg = Table.agg_of_range delta idx ~lo ~hi in
      let delta_ub = jump delta idx ~lo ~hi c in
      incr located;
      let status, ub, base_agg =
        match Query.locate tree c with
        | None -> (Fresh, delta_ub, Agg.empty)
        | Some node ->
          let old_ub = Qc_tree.node_cell tree node in
          let old_agg = Option.get node.Qc_tree.agg in
          let m = Cell.meet old_ub delta_ub in
          if Cell.equal m old_ub then (Update node, old_ub, old_agg)
          else (Carve node, m, old_agg)
      in
      let id = !counter in
      incr counter;
      let delta_values =
        match status with
        | Carve _ ->
          let sets = Array.init d (fun _ -> Hashtbl.create 4) in
          for i = lo to hi - 1 do
            let tuple = Table.tuple delta idx.(i) in
            for j = 0 to d - 1 do
              if ub.(j) = Cell.all then Hashtbl.replace sets.(j) tuple.(j) ()
            done
          done;
          sets
        | Update _ | Fresh -> [||]
      in
      let rec filled_before j =
        j < k && ((c.(j) = Cell.all && ub.(j) <> Cell.all) || filled_before (j + 1))
      in
      let expandable = not (filled_before 0) in
      records :=
        {
          id;
          lb = Cell.copy c;
          ub;
          child = chdid;
          delta_agg;
          base_agg;
          status;
          k;
          expandable;
          delta_values;
        }
        :: !records;
      if expandable then
        for j = k + 1 to d - 1 do
          if ub.(j) = Cell.all then
            Table.partition delta ~src:idx ~dst:bufs.(j + 1) ~lo ~hi ~dim:j (fun v glo ghi ->
                let c' = Cell.copy ub in
                c'.(j) <- v;
                dfs c' glo ghi j id)
        done
    in
    dfs (Cell.make_all d) 0 n (-1) (-1)
  end;
  (List.rev !records, !located)

(* When a class with old bound [u] is carved by a new bound [w], the new
   class keeps drill-downs to classes that gained no delta tuples; those
   connections cannot come out of the delta search, so they are planned here
   from the old cube: for every [*] dimension of [w] and every value present
   there in the old cover, connect [w] to the old class of the drill-down
   cell (paper: "parent-child relationships are established by inspecting
   the upper bounds ... as well as all parent and child classes of the old
   class"). *)
let plan_carve_repairs tree base records =
  let d = Table.n_dims base in
  (* A reconstruction's DFS expands a class instance only on dimensions
     beyond the one that reached it, and only when the instance is not
     pruned; the repairs for drill-downs whose partitions carry no delta
     tuples must mirror exactly those expansions, or they would create
     connections a rebuild does not have. *)
  let allowed : bool array Cell.Tbl.t = Cell.Tbl.create 16 in
  let carves = ref [] in
  List.iter
    (fun r ->
      match r.status with
      | Carve old_node ->
        let dims =
          match Cell.Tbl.find_opt allowed r.ub with
          | Some dims -> dims
          | None ->
            let dims = Array.make d false in
            Cell.Tbl.replace allowed r.ub dims;
            carves := (r.ub, old_node, r.delta_values) :: !carves;
            dims
        in
        if r.expandable then
          for j = r.k + 1 to d - 1 do
            if r.ub.(j) = Cell.all then dims.(j) <- true
          done
      | Update _ | Fresh -> ())
    records;
  let targets =
    List.sort_uniq
      (fun (a : Qc_tree.node) b -> Int.compare a.nid b.nid)
      (List.map (fun (_, n, _) -> n) !carves)
  in
  let covers = covers_for_nodes tree base targets in
  let repairs = ref [] in
  List.iter
    (fun (w, (old_node : Qc_tree.node), delta_values) ->
      (* cover_old(w) = cover_old of the whole carved class (class property),
         so the per-dimension value sets come from the old class's cover. *)
      let rows = Option.value ~default:[] (Hashtbl.find_opt covers old_node.nid) in
      let dims =
        match Cell.Tbl.find_opt allowed w with
        | Some dims -> dims
        | None -> invalid_arg "Maintenance.plan_carve_repairs: unplanned carve bound"
      in
      let old_values = Array.init d (fun _ -> Hashtbl.create 8) in
      List.iter
        (fun i ->
          let tuple = Table.tuple base i in
          for j = 0 to d - 1 do
            if dims.(j) then Hashtbl.replace old_values.(j) tuple.(j) ()
          done)
        rows;
      for j = 0 to d - 1 do
        if dims.(j) then
          Hashtbl.iter
            (fun v () ->
              if not (Hashtbl.mem delta_values.(j) v) then begin
                let x = Cell.copy w in
                x.(j) <- v;
                match Query.locate tree x with
                | Some target ->
                  repairs := (Cell.copy w, j, v, Qc_tree.node_cell tree target) :: !repairs
                | None -> ()
              end)
            old_values.(j)
      done)
    !carves;
  (* Apply in dictionary order of the target bounds — the order a rebuild
     resolves competing connections in. *)
  List.sort
    (fun (_, _, _, a) (_, _, _, b) -> Cell.compare_dict a b)
    !repairs

let insert_batch tree ~base ~delta =
  Trace.with_span ~cat:"maint"
    ~args:[ ("rows", Trace.Int (Table.n_rows delta)) ]
    "maint.insert"
  @@ fun () ->
  let records, located =
    Trace.with_span ~cat:"maint" "maint.delta_search" (fun () -> delta_search tree delta)
  in
  let repairs =
    Trace.with_span ~cat:"maint" "maint.plan_carve" (fun () ->
        plan_carve_repairs tree base records)
  in
  (* Phase 2: replay in dictionary order of upper bounds, exactly like
     construction — first occurrence patches a node, repetitions add one
     drill-down connection from their lattice child. *)
  let by_id = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace by_id r.id r) records;
  let sorted =
    List.sort
      (fun a b ->
        let c = Cell.compare_dict a.ub b.ub in
        if c <> 0 then c else Int.compare a.id b.id)
      records
  in
  let updated = ref 0 and carved = ref 0 and fresh = ref 0 in
  let last : Cell.t option ref = ref None in
  List.iter
    (fun r ->
      (match !last with
      | Some ub when Cell.equal ub r.ub ->
        if r.child >= 0 then begin
          let child =
            match Hashtbl.find_opt by_id r.child with
            | Some child -> child
            | None -> invalid_arg "Maintenance.insert_batch: dangling lattice child"
          in
          (* First dimension where the lattice child's bound is [*] but this
             class's lower bound is not: the drill-down dimension. *)
          let rec first_diff j =
            if j >= Array.length r.ub then None
            else if child.ub.(j) = Cell.all && r.lb.(j) <> Cell.all then Some j
            else first_diff (j + 1)
          in
          match first_diff 0 with
          | Some dim -> connect tree ~force:true child.ub dim r.lb.(dim) r.ub
          | None -> ()
        end
      | _ -> (
        last := Some r.ub;
        match r.status with
        | Update node ->
          incr updated;
          Qc_tree.set_agg node (Some (Agg.merge r.base_agg r.delta_agg))
        | Carve _ | Fresh ->
          (match r.status with Carve _ -> incr carved | _ -> incr fresh);
          let node = Qc_tree.insert_path tree r.ub in
          Qc_tree.set_agg node (Some (Agg.merge r.base_agg r.delta_agg))));
      ())
    sorted;
  List.iter (fun (w, dim, label, target_ub) -> connect tree ~force:false w dim label target_ub) repairs;
  (* Retarget links made stale by carves: a link into a prefix of a carved
     class's old bound whose drill-down cell now generalizes the new bound
     belongs to the new class.  (Such links only arise after earlier
     deletions; pure insertion histories never hit this pass.) *)
  let stale : (int, (Cell.t * Cell.t) list) Hashtbl.t = Hashtbl.create 16 in
  let seen_carve = Cell.Tbl.create 16 in
  List.iter
    (fun r ->
      match r.status with
      | Carve old_node when not (Cell.Tbl.mem seen_carve r.ub) ->
        Cell.Tbl.replace seen_carve r.ub ();
        let u = Qc_tree.node_cell tree old_node in
        for j = 0 to Array.length u - 1 do
          if u.(j) <> Cell.all then
            match Qc_tree.find_path tree (truncate u (j + 1)) with
            | Some prefix ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt stale prefix.Qc_tree.nid) in
              Hashtbl.replace stale prefix.Qc_tree.nid ((r.ub, u) :: prev)
            | None -> ()
        done
      | Update _ | Carve _ | Fresh -> ())
    records;
  if Hashtbl.length stale > 0 then begin
    let retargets = ref [] in
    Qc_tree.iter_nodes
      (fun src ->
        List.iter
          (fun (j, v, (dst : Qc_tree.node)) ->
            match Hashtbl.find_opt stale dst.nid with
            | None -> ()
            | Some candidates ->
              if dst.dim = j then begin
                let x = Qc_tree.node_cell tree src in
                x.(j) <- v;
                (* the most specific carved bound the drill cell generalizes *)
                let best =
                  List.fold_left
                    (fun acc (w, _) ->
                      if Cell.rolls_up_to w x then
                        match acc with
                        | Some w' when Cell.rolls_up_to w w' -> acc
                        | _ -> Some w
                      else acc)
                    None candidates
                in
                match best with
                | Some w -> retargets := (src, j, v, w) :: !retargets
                | None -> ()
              end)
          src.links)
      tree;
    Metrics.add m_retargets (List.length !retargets);
    List.iter
      (fun ((src : Qc_tree.node), j, v, w) ->
        match Qc_tree.find_path tree (truncate w (j + 1)) with
        | Some dst when dst != src ->
          Qc_tree.remove_link tree ~src ~dim:j ~label:v;
          upsert_link tree ~force:true ~src ~dim:j ~label:v ~dst
        | Some _ | None -> ())
      !retargets
  end;
  Table.append base delta;
  Metrics.add m_updated !updated;
  Metrics.add m_carved !carved;
  Metrics.add m_fresh !fresh;
  Metrics.add m_located located;
  Metrics.add m_repairs (List.length repairs);
  Log.info (fun m ->
      m "insert_batch: %d delta rows -> %d updated, %d carved, %d fresh (%d locates, %d repairs)"
        (Table.n_rows delta) !updated !carved !fresh located (List.length repairs));
  { updated = !updated; carved = !carved; fresh = !fresh; located }

let insert_tuples tree ~base ~delta =
  let totals = ref { updated = 0; carved = 0; fresh = 0; located = 0 } in
  for i = 0 to Table.n_rows delta - 1 do
    let one = Table.sub delta [ i ] in
    let s = insert_batch tree ~base ~delta:one in
    totals :=
      {
        updated = !totals.updated + s.updated;
        carved = !totals.carved + s.carved;
        fresh = !totals.fresh + s.fresh;
        located = !totals.located + s.located;
      }
  done;
  !totals

type delete_stats = {
  removed : int;
  merged : int;
  updated_classes : int;
}

(* Walk the tree propagating the subset of rows matching each path; call
   [f node rows] on every class node with a non-empty subset.  [rows] are
   row indices into [table]. *)
let propagate_covers tree table f =
  let rec go (node : Qc_tree.node) rows =
    if not (List.is_empty rows) then begin
      (match node.agg with Some _ -> f node rows | None -> ());
      List.iter
        (fun (child : Qc_tree.node) ->
          let sub =
            List.filter (fun i -> (Table.tuple table i).(child.dim) = child.label) rows
          in
          go child sub)
        node.children
    end
  in
  let all = List.init (Table.n_rows table) Fun.id in
  go (Qc_tree.root tree) all

let delete_batch tree ~base ~delta =
  Trace.with_span ~cat:"maint"
    ~args:[ ("rows", Trace.Int (Table.n_rows delta)) ]
    "maint.delete"
  @@ fun () ->
  let d = Table.n_dims base in
  (* Match delta rows against base rows as a multiset (hash join on the
     dimension vector, then measure). *)
  let deleted = Array.make (Table.n_rows base) false in
  let by_cell : int list Cell.Tbl.t = Cell.Tbl.create (Table.n_rows base) in
  for i = Table.n_rows base - 1 downto 0 do
    let cell = Table.tuple base i in
    Cell.Tbl.replace by_cell cell
      (i :: (Option.value ~default:[] (Cell.Tbl.find_opt by_cell cell)))
  done;
  for i = 0 to Table.n_rows delta - 1 do
    let cell = Table.tuple delta i and m = Table.measure delta i in
    let candidates = Option.value ~default:[] (Cell.Tbl.find_opt by_cell cell) in
    let rec claim = function
      | [] -> invalid_arg "Maintenance.delete_batch: delta row not present in base"
      | j :: rest ->
        if (not deleted.(j)) && Table.measure base j = m then deleted.(j) <- true
        else claim rest
    in
    claim candidates
  done;
  let new_base = Table.remove_rows base (fun i -> deleted.(i)) in
  (* Affected classes: class nodes whose upper bound covers a delta tuple. *)
  let affected = ref [] in
  propagate_covers tree delta (fun node _rows -> affected := node :: !affected);
  (* Mark affected nodes and their ancestors, then recompute their aggregates
     and their new bounds from the new base in one propagation restricted to
     the marked subtree. *)
  (* Remaining covers of the affected class nodes, in one pass. *)
  let new_cover = covers_for_nodes tree new_base !affected in
  (* Process affected classes, most specific upper bounds first. *)
  let with_ubs =
    List.map (fun (n : Qc_tree.node) -> (Qc_tree.node_cell tree n, n)) !affected
  in
  let ordered =
    List.sort (fun (a, _) (b, _) -> Cell.compare_rev_dict a b) with_ubs
  in
  let removed = ref 0 and merged = ref 0 and updated_classes = ref 0 in
  let rows_of node =
    Option.value ~default:[] (Hashtbl.find_opt new_cover node.Qc_tree.nid)
  in
  let new_bound u rows =
    (* Upper bound of cell [u]'s class over the remaining cover. *)
    let u' = Cell.copy u in
    for j = 0 to d - 1 do
      if u'.(j) = Cell.all then begin
        match rows with
        | [] -> ()
        | first :: rest ->
          let v0 = (Table.tuple new_base first).(j) in
          if List.for_all (fun i -> (Table.tuple new_base i).(j) = v0) rest then
            u'.(j) <- v0
      end
    done;
    u'
  in
  List.iter
    (fun (u, (node : Qc_tree.node)) ->
      let rows = rows_of node in
      if List.is_empty rows then begin
        incr removed;
        Qc_tree.set_agg node None
      end
      else begin
        let agg =
          List.fold_left
            (fun acc i -> Agg.merge acc (Agg.of_measure (Table.measure new_base i)))
            Agg.empty rows
        in
        let u' = new_bound u rows in
        if Cell.equal u' u then begin
          incr updated_classes;
          Qc_tree.set_agg node (Some agg)
        end
        else begin
          (* The class merges into the class of its new, more specific upper
             bound; that node keeps the (equal) aggregate. *)
          incr merged;
          Qc_tree.set_agg node None
        end
      end)
    ordered;
  (* Rewiring: connections into nodes that die with a merged class are
     retargeted to the corresponding prefix of the surviving bound; then
     empty branches are pruned and dangling links dropped. *)
  let dying = Hashtbl.create 64 in
  let rec collect_dying (n : Qc_tree.node) =
    (* Map first: every subtree must be visited, [for_all] short-circuits. *)
    let kids_dead = List.for_all Fun.id (List.map collect_dying n.children) in
    let dead = Option.is_some n.parent && Option.is_none n.agg && kids_dead in
    if dead then Hashtbl.replace dying n.nid ();
    dead
  in
  ignore (collect_dying (Qc_tree.root tree));
  (* Every connection into a dying node [x] carries [x]'s dimension as its
     label dimension; it is retargeted to the same-depth prefix of the new
     class upper bound of [x]'s path cell (the class its cells merged into),
     or dropped when that cell's cover became empty. *)
  let replacement = Hashtbl.create 64 in
  let dying_nodes = ref [] in
  Qc_tree.iter_nodes
    (fun x -> if Hashtbl.mem dying x.nid then dying_nodes := x :: !dying_nodes)
    tree;
  let dying_cover = covers_for_nodes tree new_base !dying_nodes in
  List.iter
    (fun (x : Qc_tree.node) ->
      match Option.value ~default:[] (Hashtbl.find_opt dying_cover x.nid) with
      | [] -> ()
      | rows -> (
        let w = new_bound (Qc_tree.node_cell tree x) rows in
        match Qc_tree.find_path tree (truncate w (x.dim + 1)) with
        | Some r when not (Hashtbl.mem dying r.nid) -> Hashtbl.replace replacement x.nid r
        | Some _ | None -> ()))
    !dying_nodes;
  (* Retarget or drop links into dying nodes; turn tree edges from live
     parents into links onto the replacement. *)
  let pending = ref [] in
  Qc_tree.iter_nodes
    (fun n ->
      if not (Hashtbl.mem dying n.nid) then
        List.iter
          (fun (dim, label, dst) ->
            if Hashtbl.mem dying dst.Qc_tree.nid then begin
              Qc_tree.remove_link tree ~src:n ~dim ~label;
              match Hashtbl.find_opt replacement dst.Qc_tree.nid with
              | Some r -> pending := (n, dim, label, r) :: !pending
              | None -> ()
            end)
          n.links)
    tree;
  Qc_tree.iter_nodes
    (fun n ->
      if Hashtbl.mem dying n.nid then
        match (n.parent, Hashtbl.find_opt replacement n.nid) with
        | Some p, Some r when not (Hashtbl.mem dying p.Qc_tree.nid) ->
          pending := (p, n.dim, n.label, r) :: !pending
        | _ -> ())
    tree;
  (* Physically remove dying branches: prune upward from their live
     frontier.  Dying nodes may still hold links among themselves; clear
     them first so pruning can proceed. *)
  Qc_tree.iter_nodes
    (fun n ->
      if Hashtbl.mem dying n.nid then
        List.iter (fun (dim, label, _) -> Qc_tree.remove_link tree ~src:n ~dim ~label) n.links)
    tree;
  let leaves = ref [] in
  Qc_tree.iter_nodes
    (fun n ->
      if Hashtbl.mem dying n.nid && List.is_empty n.children then leaves := n :: !leaves)
    tree;
  List.iter (fun n -> Qc_tree.prune_upward tree n) !leaves;
  List.iter
    (fun (src, dim, label, dst) -> upsert_link tree ~force:false ~src ~dim ~label ~dst)
    !pending;
  Qc_tree.drop_links_to_dead_targets tree;
  Metrics.add m_removed !removed;
  Metrics.add m_merged !merged;
  Metrics.add m_updated !updated_classes;
  Metrics.add m_retargets (List.length !pending);
  Log.info (fun m ->
      m "delete_batch: %d delta rows -> %d removed, %d merged, %d updated (%d link retargets)"
        (Table.n_rows delta) !removed !merged !updated_classes (List.length !pending));
  (new_base, { removed = !removed; merged = !merged; updated_classes = !updated_classes })

(* "Modifications can be simulated by deletions and insertions"
   (Section 3.3): remove the old rows, then insert the new ones. *)
let update_batch tree ~base ~old_rows ~new_rows =
  Trace.with_span ~cat:"maint" "maint.update" @@ fun () ->
  let new_base, del_stats = delete_batch tree ~base ~delta:old_rows in
  let ins_stats = insert_batch tree ~base:new_base ~delta:new_rows in
  (new_base, del_stats, ins_stats)
