open Qc_cube
module Metrics = Qc_util.Metrics

let log = Logs.Src.create "qc.tree" ~doc:"QC-tree structure maintenance"

module Log = (val Logs.src_log log)

(* Construction-side work counters: how much structure the tree grows and
   how much it shares (a prefix hit is an [insert_path] step resolved by an
   existing edge instead of a fresh node). *)
let m_nodes = Metrics.counter "tree.nodes_created"

let m_links = Metrics.counter "tree.links_created"

let m_prefix_hits = Metrics.counter "tree.prefix_hits"

type node = {
  nid : int;
  dim : int;
  label : int;
  parent : node option;
  mutable children : node list;
  mutable links : (int * int * node) list;
  mutable agg : Agg.t option;
  mutable last_child_cache : node option;
      (* child on the maximal dimension; the hop of Lemma 2 is hot on query
         paths, so it is maintained incrementally instead of scanning the
         fan-out *)
}

type entry = Edge of node | Link of node

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Mix high bits (node id) into the low bits the bucket mask keeps
     (SplitMix64 finalizer). *)
  let hash x =
    let x = x lxor (x lsr 33) in
    let x = x * 0xFF51AFD7ED558CC land max_int in
    let x = x lxor (x lsr 29) in
    x land max_int
end)

type t = {
  schema : Schema.t;
  root : node;
  mutable next_id : int;
  (* packed (source node id, dimension, label) -> outgoing edge or link.
     Gives O(1) [searchroute] steps independently of fan-out; the packed
     integer key avoids per-lookup tuple allocation and generic hashing. *)
  index : entry Int_tbl.t;
}

(* Key layout: 20 bits label | 4 bits dimension | the rest node id.  The
   bounds are checked when edges are added. *)
let pack nid dim label = (((nid lsl 4) lor dim) lsl 20) lor label

let check_packable dim label =
  if dim < 0 || dim > 15 then
    invalid_arg "Qc_tree: at most 16 dimensions are supported";
  if label < 0 || label > 0xFFFFF then
    invalid_arg "Qc_tree: dimension cardinality is limited to 2^20 - 1"

let create schema =
  let root =
    {
      nid = 0;
      dim = -1;
      label = 0;
      parent = None;
      children = [];
      links = [];
      agg = None;
      last_child_cache = None;
    }
  in
  { schema; root; next_id = 1; index = Int_tbl.create 4096 }

let schema t = t.schema

let root t = t.root

let find_edge t node dim label =
  match Int_tbl.find_opt t.index (pack node.nid dim label) with
  | Some (Edge n) -> Some n
  | Some (Link _) | None -> None

let find_edge_or_link t node dim label =
  match Int_tbl.find_opt t.index (pack node.nid dim label) with
  | Some (Edge n) | Some (Link n) -> Some n
  | None -> None

let find_entry t node dim label = Int_tbl.find_opt t.index (pack node.nid dim label)

let add_child t parent dim label =
  check_packable dim label;
  (* Definition 1 forbids a tree edge and a link with the same label out of
     one node; when a new path claims a label held by a link, the link is
     superseded. *)
  (match Int_tbl.find_opt t.index (pack parent.nid dim label) with
  | Some (Link _) ->
    parent.links <- List.filter (fun (d, l, _) -> not (d = dim && l = label)) parent.links;
    Int_tbl.remove t.index (pack parent.nid dim label)
  | Some (Edge _) -> invalid_arg "Qc_tree.add_child: edge already present"
  | None -> ());
  let n =
    {
      nid = t.next_id;
      dim;
      label;
      parent = Some parent;
      children = [];
      links = [];
      agg = None;
      last_child_cache = None;
    }
  in
  Metrics.incr m_nodes;
  t.next_id <- t.next_id + 1;
  parent.children <- n :: parent.children;
  (* keep a filled cache current; an invalidated (None) cache is rebuilt
     lazily by [last_dim_child], which will see the new child anyway *)
  (match parent.last_child_cache with
  | Some m when m.dim > dim || (m.dim = dim && m.label > label) -> ()
  | Some _ -> parent.last_child_cache <- Some n
  | None -> ());
  Int_tbl.replace t.index (pack parent.nid dim label) (Edge n);
  n

let insert_path t ub =
  let d = Array.length ub in
  let rec go node i =
    if i >= d then node
    else if ub.(i) = Cell.all then go node (i + 1)
    else
      let next =
        match find_edge t node i ub.(i) with
        | Some n ->
          Metrics.incr m_prefix_hits;
          n
        | None -> add_child t node i ub.(i)
      in
      go next (i + 1)
  in
  go t.root 0

let find_path t ub =
  let d = Array.length ub in
  let rec go node i =
    if i >= d then Some node
    else if ub.(i) = Cell.all then go node (i + 1)
    else
      match find_edge t node i ub.(i) with
      | Some n -> go n (i + 1)
      | None -> None
  in
  go t.root 0

let set_agg node agg = node.agg <- agg

let add_link t ~src ~dim ~label ~dst =
  check_packable dim label;
  match Int_tbl.find_opt t.index (pack src.nid dim label) with
  | Some (Edge n) | Some (Link n) ->
    if n != dst then
      invalid_arg "Qc_tree.add_link: conflicting edge or link on this label"
  | None ->
    Metrics.incr m_links;
    src.links <- (dim, label, dst) :: src.links;
    Int_tbl.replace t.index (pack src.nid dim label) (Link dst)

let remove_link t ~src ~dim ~label =
  (match Int_tbl.find_opt t.index (pack src.nid dim label) with
  | Some (Link _) -> Int_tbl.remove t.index (pack src.nid dim label)
  | Some (Edge _) -> invalid_arg "Qc_tree.remove_link: found a tree edge"
  | None -> ());
  src.links <- List.filter (fun (d, l, _) -> not (d = dim && l = label)) src.links

let remove_child t child =
  match child.parent with
  | None -> invalid_arg "Qc_tree.remove_child: cannot remove the root"
  | Some parent ->
    parent.children <- List.filter (fun n -> n != child) parent.children;
    parent.last_child_cache <- None;
    Int_tbl.remove t.index (pack parent.nid child.dim child.label)

let rec prune_upward t node =
  if
    Option.is_some node.parent && Option.is_none node.agg
    && List.is_empty node.children && List.is_empty node.links
  then begin
    let parent = node.parent in
    remove_child t node;
    match parent with Some p -> prune_upward t p | None -> ()
  end

let node_cell t node =
  let cell = Cell.make_all (Schema.n_dims t.schema) in
  let rec up n =
    match n.parent with
    | None -> ()
    | Some p ->
      cell.(n.dim) <- n.label;
      up p
  in
  up node;
  cell

let scan_last_child node =
  let better a b =
    (* maximal dimension, then maximal label (latest in dictionary order) *)
    if a.dim <> b.dim then a.dim > b.dim else a.label > b.label
  in
  List.fold_left
    (fun acc n -> match acc with Some m when better m n -> acc | _ -> Some n)
    None node.children

let last_dim_child node =
  match node.last_child_cache with
  | Some _ as c -> c
  | None ->
    let c = scan_last_child node in
    node.last_child_cache <- c;
    c

let rec iter_node f n =
  f n;
  List.iter (iter_node f) n.children

let iter_nodes f t = iter_node f t.root

let iter_classes f t =
  iter_nodes
    (fun n -> match n.agg with Some a -> f n (node_cell t n) a | None -> ())
    t

let drop_links_to_dead_targets t =
  let live = Hashtbl.create 256 in
  iter_nodes (fun n -> Hashtbl.replace live n.nid ()) t;
  iter_nodes
    (fun n ->
      List.iter
        (fun (dim, label, dst) ->
          if not (Hashtbl.mem live dst.nid) then remove_link t ~src:n ~dim ~label)
        n.links)
    t

let n_nodes t =
  let k = ref 0 in
  iter_nodes (fun _ -> incr k) t;
  !k

let n_links t =
  let k = ref 0 in
  iter_nodes (fun n -> k := !k + List.length n.links) t;
  !k

let n_classes t =
  let k = ref 0 in
  iter_nodes (fun n -> if Option.is_some n.agg then incr k) t;
  !k

let bytes t =
  let open Qc_util.Size in
  let nodes = n_nodes t - 1 (* the root stores nothing *) in
  let links = n_links t in
  let classes = n_classes t in
  (nodes * (value_bytes + pointer_bytes))
  + (links * (value_bytes + pointer_bytes))
  + (classes * measure_bytes)

(* Construction: Algorithm 1, second phase. *)
let of_temp_classes schema classes =
  let t = create schema in
  let sorted = Array.of_list classes in
  Array.stable_sort Temp_class.compare_for_insertion sorted;
  (* Temp-class ids ([Dfs.run] numbers 0 .. n-1) index the upper bound and
     node of every class inserted so far. *)
  let n_ids = Array.fold_left (fun acc (tc : Temp_class.t) -> max acc (tc.id + 1)) 0 sorted in
  let placed : (Cell.t * node) option array = Array.make n_ids None in
  let rec up_to_dim_below dim n =
    match n.parent with Some p when n.dim >= dim -> up_to_dim_below dim p | _ -> n
  in
  let last = ref None in
  Array.iter
    (fun (tc : Temp_class.t) ->
      let node =
        match !last with
        | Some ((ub : Cell.t), node) when Cell.equal ub tc.ub ->
          (* Redundant temporary class: add one drill-down connection per
             Definition 1 — labeled by the drill-down dimension value, from
             the lattice child's upper-bound prefix before that dimension to
             this upper bound's prefix through it.  When the two prefixes are
             already joined by a tree edge, no link is needed.  The child
             sorts first (its bound is more general), so its node exists. *)
          let child_ub, child_node =
            match if tc.child >= 0 && tc.child < n_ids then placed.(tc.child) else None with
            | Some placed_child -> placed_child
            | None -> invalid_arg "Qc_tree.of_temp_classes: dangling lattice child"
          in
          (* First dimension where the lattice child's upper bound is [*]
             but this class's lower bound is not: the drill-down dimension.
             The link runs between the two paths' prefixes, found by
             walking up from the class nodes. *)
          let d = Array.length child_ub in
          let rec drill i =
            if i >= d then ()
            else if child_ub.(i) = Cell.all && tc.lb.(i) <> Cell.all then begin
              let src = up_to_dim_below i child_node in
              let dst = up_to_dim_below (i + 1) node in
              let already_tree_edge = match dst.parent with Some p -> p == src | None -> false in
              if not already_tree_edge then add_link t ~src ~dim:i ~label:tc.lb.(i) ~dst
            end
            else drill (i + 1)
          in
          drill 0;
          node
        | _ ->
          let node = insert_path t tc.ub in
          set_agg node (Some tc.agg);
          last := Some (tc.ub, node);
          node
      in
      placed.(tc.id) <- Some (tc.ub, node))
    sorted;
  Log.info (fun m ->
      m "built tree from %d temp classes: %d nodes, %d links, %d classes"
        (Array.length sorted) (n_nodes t) (n_links t) (n_classes t));
  t

let of_table table = of_temp_classes (Table.schema table) (Dfs.run table)

let copy t =
  (* Deep-copy nodes first, then remap links through the id correspondence. *)
  let t' = create t.schema in
  let mapping = Hashtbl.create 1024 in
  let mapped nid =
    match Hashtbl.find_opt mapping nid with
    | Some n -> n
    | None -> invalid_arg "Qc_tree.copy: link endpoint outside the tree"
  in
  Hashtbl.replace mapping t.root.nid t'.root;
  let rec clone_children src dst =
    (* children are prepended on insertion; rebuild in original order *)
    List.iter
      (fun (c : node) ->
        let c' = add_child t' dst c.dim c.label in
        c'.agg <- c.agg;
        Hashtbl.replace mapping c.nid c';
        clone_children c c')
      (List.rev src.children)
  in
  t'.root.agg <- t.root.agg;
  clone_children t.root t'.root;
  iter_nodes
    (fun n ->
      let src' = mapped n.nid in
      List.iter
        (fun (dim, label, dst) ->
          add_link t' ~src:src' ~dim ~label ~dst:(mapped dst.nid))
        (List.rev n.links))
    t;
  t'


(* The canonical child/link order: ascending dimension, then label. *)
let compare_dim_label d l d' l' =
  let c = Int.compare d d' in
  if c <> 0 then c else Int.compare l l'

let sorted_children n =
  List.sort (fun a b -> compare_dim_label a.dim a.label b.dim b.label) n.children

let sorted_links n =
  List.sort (fun (d, l, _) (d', l', _) -> compare_dim_label d l d' l') n.links

let path_string_dims t n =
  let cell = node_cell t n in
  let parts = ref [] in
  Array.iteri (fun i v -> if v <> Cell.all then parts := Printf.sprintf "%d:%d" i v :: !parts) cell;
  String.concat "." (List.rev !parts)

let canonical_string t =
  let buf = Buffer.create 4096 in
  let agg_repr = function
    | None -> "-"
    | Some (a : Agg.t) ->
      Printf.sprintf "c%d,s%.6g,m%.6g,M%.6g" a.count a.sum a.min a.max
  in
  let rec go n =
    Buffer.add_string buf
      (Printf.sprintf "(%d:%d|%s" n.dim n.label (agg_repr n.agg));
    List.iter
      (fun (d, l, dst) ->
        Buffer.add_string buf (Printf.sprintf "[%d:%d->%s]" d l (path_string_dims t dst)))
      (sorted_links n);
    List.iter go (sorted_children n);
    Buffer.add_char buf ')'
  in
  go t.root;
  Buffer.contents buf

let pp ppf t =
  let rec go indent n =
    let label =
      if n.dim < 0 then "Root"
      else Printf.sprintf "%s=%s" (Schema.dim_name t.schema n.dim)
          (Schema.decode_value t.schema n.dim n.label)
    in
    let agg = match n.agg with None -> "" | Some a -> Format.asprintf " %a" Agg.pp a in
    Format.fprintf ppf "%s%s%s@." (String.make indent ' ') label agg;
    List.iter
      (fun (d, l, dst) ->
        Format.fprintf ppf "%s ~link %s=%s -> node %d@." (String.make indent ' ')
          (Schema.dim_name t.schema d) (Schema.decode_value t.schema d l) dst.nid)
      (sorted_links n);
    List.iter (go (indent + 2)) (sorted_children n)
  in
  go 0 t.root

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let seen_labels = Hashtbl.create 64 in
  iter_nodes
    (fun n ->
      Hashtbl.reset seen_labels;
      List.iter
        (fun c ->
          if c.dim <= n.dim then
            err "node %d: child %d does not increase dimension (%d <= %d)" n.nid c.nid c.dim n.dim;
          if Hashtbl.mem seen_labels (c.dim, c.label) then
            err "node %d: duplicate child label (%d,%d)" n.nid c.dim c.label;
          Hashtbl.replace seen_labels (c.dim, c.label) ();
          (match c.parent with
          | Some p when p == n -> ()
          | _ -> err "node %d: child %d has wrong parent" n.nid c.nid);
          match Int_tbl.find_opt t.index (pack n.nid c.dim c.label) with
          | Some (Edge e) when e == c -> ()
          | _ -> err "node %d: child (%d,%d) missing from index" n.nid c.dim c.label)
        n.children;
      List.iter
        (fun (d, l, dst) ->
          if Hashtbl.mem seen_labels (d, l) then
            err "node %d: link label (%d,%d) duplicates an edge or link" n.nid d l;
          Hashtbl.replace seen_labels (d, l) ();
          match Int_tbl.find_opt t.index (pack n.nid d l) with
          | Some (Link e) when e == dst -> ()
          | _ -> err "node %d: link (%d,%d) missing from index" n.nid d l)
        n.links)
    t;
  (* No stale index entries. *)
  let live = Hashtbl.create 256 in
  iter_nodes (fun n -> Hashtbl.replace live n.nid ()) t;
  Int_tbl.iter
    (fun key _ ->
      let src = key lsr 24 in
      if not (Hashtbl.mem live src) then
        err "index: stale entry from dead node %d (key %d)" src key)
    t.index;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
