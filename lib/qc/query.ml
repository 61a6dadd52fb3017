open Qc_cube
module Metrics = Qc_util.Metrics
module Trace = Qc_util.Trace

(* Per-step work counters of Algorithms 3 and 4 — the units the paper's
   Figure 13 analysis is phrased in.  A tree-edge or link step consumes one
   instantiated query dimension; a last-dimension hop (Lemma 2) and a
   descend step reach more specific bounds without consuming one. *)
let m_point = Metrics.counter "query.point"

let m_point_hits = Metrics.counter "query.point_hits"

let m_edge_steps = Metrics.counter "query.tree_edge_steps"

let m_link_steps = Metrics.counter "query.link_steps"

let m_hops = Metrics.counter "query.last_dim_hops"

let m_descends = Metrics.counter "query.descend_hops"

let m_range = Metrics.counter "query.range"

let m_range_expansions = Metrics.counter "query.range_expansions"

let m_range_results = Metrics.counter "query.range_results"

let h_path_nodes = Metrics.histogram "query.path_nodes"

(* ---------- typed errors (the Engine seam) ----------

   One failure vocabulary shared by every backend, replacing the historical
   mix of [option] returns ([point]) and [Invalid_argument] ([range]).  The
   legacy entry points survive as thin wrappers over the [_result] API. *)

type error =
  | Arity_mismatch of { expected : int; got : int }
  | Empty_cover of Cell.t
  | Unsupported of { backend : string; operation : string }
  | Bad_query of string

let error_equal a b =
  match (a, b) with
  | Arity_mismatch x, Arity_mismatch y -> x.expected = y.expected && x.got = y.got
  | Empty_cover x, Empty_cover y -> Cell.equal x y
  | Unsupported x, Unsupported y ->
    String.equal x.backend y.backend && String.equal x.operation y.operation
  | Bad_query x, Bad_query y -> String.equal x y
  | (Arity_mismatch _ | Empty_cover _ | Unsupported _ | Bad_query _), _ -> false

let raw_cell_string (cell : Cell.t) =
  cell
  |> Array.map (fun v -> if v = Cell.all then "*" else string_of_int v)
  |> Array.to_list
  |> String.concat ","

let error_to_string ?schema = function
  | Arity_mismatch { expected; got } ->
    Printf.sprintf "arity mismatch: query has %d dimension(s), schema has %d" got expected
  | Empty_cover cell ->
    let rendered =
      match schema with
      | Some s -> Cell.to_string s cell
      | None -> Printf.sprintf "(%s)" (raw_cell_string cell)
    in
    Printf.sprintf "cell %s is not in the cube (empty cover set)" rendered
  | Unsupported { backend; operation } ->
    Printf.sprintf "the %s backend does not support %s" backend operation
  | Bad_query msg -> Printf.sprintf "bad query: %s" msg

let check_arity expected got =
  if expected <> got then Error (Arity_mismatch { expected; got }) else Ok ()

(* Function [searchroute] of Algorithm 3: reach a step labeled [(dim, v)]
   from [node], hopping through last-dimension children (Lemma 2) while they
   stay in earlier dimensions. *)
let rec searchroute t node dim v =
  match Qc_tree.find_edge_or_link t node dim v with
  | Some n -> Some n
  | None -> (
    match Qc_tree.last_dim_child node with
    | Some child when child.Qc_tree.dim < dim -> searchroute t child dim v
    | Some _ | None -> None)

(* Descend through last-dimension children until a class node. *)
let rec descend_to_class node =
  match node.Qc_tree.agg with
  | Some agg -> Some (node, agg)
  | None -> (
    match Qc_tree.last_dim_child node with
    | Some child -> descend_to_class child
    | None -> None)

(* Soundness check without materializing the path cell: the reached upper
   bound must agree with the query cell on all its instantiated dimensions;
   then its class covers the query cell's cover set, so the cell is in the
   cube and — by Lemma 2 — this is exactly its class. *)
let path_dominates (node : Qc_tree.node) (cell : Cell.t) =
  let needed = ref 0 in
  for i = 0 to Array.length cell - 1 do
    if cell.(i) <> Cell.all then incr needed
  done;
  let rec up (n : Qc_tree.node) matched =
    match n.parent with
    | None -> matched = !needed
    | Some p ->
      if cell.(n.dim) = Cell.all then up p matched
      else if cell.(n.dim) = n.label then up p (matched + 1)
      else false
  in
  up node 0

(* ---------- EXPLAIN: the point-query path, step by step ---------- *)

type step_kind = Tree_edge | Link | Last_dim_hop | Descend

type step = { kind : step_kind; target : Qc_tree.node }

type outcome =
  | Hit
  | Miss_no_route of int
  | Miss_no_class
  | Miss_not_dominating

type explanation = {
  cell : Cell.t;
  steps : step list;
  outcome : outcome;
  result : (Qc_tree.node * Agg.t) option;
}

(* Mirror of [locate_with_agg] below that records every node transition.
   Used by [qct explain], by [node_accesses], and — when metrics are on — by
   query answering itself, so the counters cannot drift from the real
   search. *)
let explain t cell =
  let d = Array.length cell in
  let steps = ref [] in
  let push kind target = steps := { kind; target } :: !steps in
  let finish outcome result =
    { cell = Cell.copy cell; steps = List.rev !steps; outcome; result }
  in
  let rec searchroute_x node dim v =
    match Qc_tree.find_entry t node dim v with
    | Some (Qc_tree.Edge n) ->
      push Tree_edge n;
      Some n
    | Some (Qc_tree.Link n) ->
      push Link n;
      Some n
    | None -> (
      match Qc_tree.last_dim_child node with
      | Some child when child.Qc_tree.dim < dim ->
        push Last_dim_hop child;
        searchroute_x child dim v
      | Some _ | None -> None)
  in
  let rec descend_x (node : Qc_tree.node) =
    match node.agg with
    | Some agg -> Some (node, agg)
    | None -> (
      match Qc_tree.last_dim_child node with
      | Some child ->
        push Descend child;
        descend_x child
      | None -> None)
  in
  let rec consume node i =
    if i >= d then
      match descend_x node with
      | None -> finish Miss_no_class None
      | Some (n, agg) ->
        if path_dominates n cell then finish Hit (Some (n, agg))
        else finish Miss_not_dominating None
    else if cell.(i) = Cell.all then consume node (i + 1)
    else
      match searchroute_x node i cell.(i) with
      | Some next -> consume next (i + 1)
      | None -> finish (Miss_no_route i) None
  in
  consume (Qc_tree.root t) 0

let nodes_touched e = 1 + List.length e.steps

let step_kind_name = function
  | Tree_edge -> "edge"
  | Link -> "link"
  | Last_dim_hop -> "hop"
  | Descend -> "descend"

let pp_explanation t ppf e =
  let schema = Qc_tree.schema t in
  let outcome_str =
    match e.outcome with
    | Hit -> "HIT"
    | Miss_no_route i ->
      Printf.sprintf "MISS (no route on dimension %s)" (Schema.dim_name schema i)
    | Miss_no_class -> "MISS (no class below the reached prefix)"
    | Miss_not_dominating -> "MISS (reached bound disagrees with the query cell)"
  in
  Format.fprintf ppf "point %s: %s, %d nodes touched@." (Cell.to_string schema e.cell)
    outcome_str (nodes_touched e);
  Format.fprintf ppf "  root@.";
  List.iter
    (fun { kind; target } ->
      Format.fprintf ppf "  %-7s %s=%s -> %s@." (step_kind_name kind)
        (Schema.dim_name schema target.Qc_tree.dim)
        (Schema.decode_value schema target.Qc_tree.dim target.Qc_tree.label)
        (Cell.to_string schema (Qc_tree.node_cell t target)))
    e.steps;
  match e.result with
  | Some (node, agg) ->
    Format.fprintf ppf "  = class %s %a@."
      (Cell.to_string schema (Qc_tree.node_cell t node))
      Agg.pp agg
  | None -> ()

let record_explanation e =
  Metrics.incr m_point;
  List.iter
    (fun s ->
      match s.kind with
      | Tree_edge -> Metrics.incr m_edge_steps
      | Link -> Metrics.incr m_link_steps
      | Last_dim_hop -> Metrics.incr m_hops
      | Descend -> Metrics.incr m_descends)
    e.steps;
  Metrics.observe h_path_nodes (nodes_touched e);
  if e.outcome = Hit then Metrics.incr m_point_hits

let locate_with_agg t cell =
  if Metrics.enabled () then begin
    let e = explain t cell in
    record_explanation e;
    e.result
  end
  else
    let d = Array.length cell in
    let rec consume node i =
      if i >= d then descend_to_class node
      else if cell.(i) = Cell.all then consume node (i + 1)
      else
        match searchroute t node i cell.(i) with
        | Some next -> consume next (i + 1)
        | None -> None
    in
    match consume (Qc_tree.root t) 0 with
    | None -> None
    | Some (node, agg) -> if path_dominates node cell then Some (node, agg) else None

let point_result t cell =
  match check_arity (Schema.n_dims (Qc_tree.schema t)) (Array.length cell) with
  | Error _ as e -> e
  | Ok () -> (
    match locate_with_agg t cell with
    | Some (_, agg) -> Ok agg
    | None -> Error (Empty_cover (Cell.copy cell)))

let point_value_result t func cell = Result.map (Agg.value func) (point_result t cell)

let point t cell = Result.to_option (point_result t cell)

let point_value t func cell = Result.to_option (point_value_result t func cell)

let locate t cell = Option.map fst (locate_with_agg t cell)

type range = int array array

let check_range t (q : range) =
  if Array.length q <> Schema.n_dims (Qc_tree.schema t) then
    invalid_arg "Query.range: arity mismatch with schema"

let range t (q : range) =
  check_range t q;
  Metrics.incr m_range;
  Trace.with_span ~cat:"query" "query.range" @@ fun () ->
  let d = Array.length q in
  let inst = Cell.make_all d in
  let results = ref [] in
  let verify node agg =
    if path_dominates node inst then begin
      Metrics.incr m_range_results;
      results := (Cell.copy inst, agg) :: !results
    end
  in
  let rec go node i =
    if i >= d then Option.iter (fun (n, a) -> verify n a) (descend_to_class node)
    else if Array.length q.(i) = 0 then go node (i + 1)
    else
      Array.iter
        (fun v ->
          (* Algorithm 4 fanout: one expansion per (prefix, range value). *)
          Metrics.incr m_range_expansions;
          inst.(i) <- v;
          (match searchroute t node i v with Some next -> go next (i + 1) | None -> ());
          inst.(i) <- Cell.all)
        q.(i)
  in
  go (Qc_tree.root t) 0;
  Trace.add_attr "results" (Trace.Int (List.length !results));
  List.rev !results

let range_result t (q : range) =
  match check_arity (Schema.n_dims (Qc_tree.schema t)) (Array.length q) with
  | Error _ as e -> e
  | Ok () -> Ok (range t q)

let range_of_cells t (q : range) =
  check_range t q;
  let d = Array.length q in
  let acc = ref [] in
  let inst = Cell.make_all d in
  let rec go i =
    if i >= d then acc := Cell.copy inst :: !acc
    else if Array.length q.(i) = 0 then go (i + 1)
    else
      Array.iter
        (fun v ->
          inst.(i) <- v;
          go (i + 1);
          inst.(i) <- Cell.all)
        q.(i)
  in
  go 0;
  List.rev !acc

type measure_index = {
  tree : Qc_tree.t;
  func : Agg.func;
  entries : (float * Qc_tree.node) array;  (** sorted by aggregate value *)
}

let make_index tree func =
  Trace.with_span ~cat:"query" "query.index" @@ fun () ->
  let acc = ref [] in
  Qc_tree.iter_nodes
    (fun n ->
      match n.Qc_tree.agg with
      | Some a ->
        (* leave NaN out: [Float.compare] sorts it first, yet it is at
           least no threshold *)
        let v = Agg.value func a in
        if not (Float.is_nan v) then acc := (v, n) :: !acc
      | None -> ())
    tree;
  let entries = Array.of_list !acc in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) entries;
  Trace.add_attr "entries" (Trace.Int (Array.length entries));
  { tree; func; entries }

(* First index position with value >= threshold, or the length when there
   is none (always, for a NaN threshold). *)
let lower_bound entries threshold =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst entries.(mid) >= threshold then hi := mid else lo := mid + 1
  done;
  !lo

let iceberg idx ~threshold =
  let start = lower_bound idx.entries threshold in
  let out = ref [] in
  for i = Array.length idx.entries - 1 downto start do
    let _, node = idx.entries.(i) in
    match node.Qc_tree.agg with
    | Some a -> out := (Qc_tree.node_cell idx.tree node, a) :: !out
    | None -> ()
  done;
  !out

let iceberg_range ?(strategy = `Filter) t idx (q : range) ~threshold =
  check_range t q;
  if idx.tree != t then invalid_arg "Query.iceberg_range: index built for another tree";
  let above a = Agg.value idx.func a >= threshold in
  match strategy with
  | `Filter -> List.filter (fun (_, a) -> above a) (range t q)
  | `Mark ->
    (* Mark qualifying class nodes and their ancestors; answer the range
       query restricted to marked nodes. *)
    let marked = Hashtbl.create 256 in
    let rec mark_up (n : Qc_tree.node) =
      if not (Hashtbl.mem marked n.nid) then begin
        Hashtbl.replace marked n.nid ();
        Option.iter mark_up n.parent
      end
    in
    let start = lower_bound idx.entries threshold in
    for i = start to Array.length idx.entries - 1 do
      mark_up (snd idx.entries.(i))
    done;
    let in_subtree (n : Qc_tree.node) = Hashtbl.mem marked n.nid in
    let d = Array.length q in
    let inst = Cell.make_all d in
    let results = ref [] in
    let rec descend node =
      match node.Qc_tree.agg with
      | Some agg -> if above agg then Some (node, agg) else None
      | None -> (
        match Qc_tree.last_dim_child node with
        | Some child when in_subtree child -> descend child
        | Some _ | None -> None)
    in
    let verify node agg =
      if path_dominates node inst then results := (Cell.copy inst, agg) :: !results
    in
    let rec go node i =
      if not (in_subtree node) then ()
      else if i >= d then Option.iter (fun (n, a) -> verify n a) (descend node)
      else if Array.length q.(i) = 0 then go node (i + 1)
      else
        Array.iter
          (fun v ->
            inst.(i) <- v;
            (match searchroute t node i v with Some next -> go next (i + 1) | None -> ());
            inst.(i) <- Cell.all)
          q.(i)
    in
    go (Qc_tree.root t) 0;
    List.rev !results


let node_accesses t cell =
  (* Re-run the point search counting visited nodes — the paper's Figure 13
     discussion compares this against Dwarf's fixed n accesses. *)
  nodes_touched (explain t cell)

(* ---------- the packed fast path ----------

   Step-for-step mirrors of the algorithms above over [Packed.t].  Every
   navigation primitive corresponds one-to-one ([Packed.find_step] ≍
   [Qc_tree.find_entry], [Packed.last_child] ≍ [Qc_tree.last_dim_child]),
   so the packed search visits the same nodes in the same order, reports
   identical [node_accesses], and bumps the same metrics counters. *)

(* [searchroute] over the packed layout.  Allocation-free: nodes are ids and
   "not found" is -1, so a point query touches nothing but int arrays until
   the final aggregate is materialised. *)
let rec searchroute_p p node dim v =
  let next = Packed.step_dst p node dim v in
  if next >= 0 then next
  else
    let child = Packed.last_child p node in
    if child >= 0 && Packed.dim p child < dim then searchroute_p p child dim v
    else -1

let rec descend_to_class_p p node =
  if Packed.has_agg p node then node
  else
    let child = Packed.last_child p node in
    if child >= 0 then descend_to_class_p p child else -1

let path_dominates_p p node (cell : Cell.t) =
  let needed = ref 0 in
  for i = 0 to Array.length cell - 1 do
    if cell.(i) <> Cell.all then incr needed
  done;
  let rec up n matched =
    if Packed.parent p n < 0 then matched = !needed
    else
      let d = Packed.dim p n in
      if cell.(d) = Cell.all then up (Packed.parent p n) matched
      else if cell.(d) = Packed.label p n then up (Packed.parent p n) (matched + 1)
      else false
  in
  up node 0

type packed_step = { pkind : step_kind; pnode : int }

type packed_explanation = {
  pcell : Cell.t;
  psteps : packed_step list;
  poutcome : outcome;
  presult : (int * Agg.t) option;
}

let explain_packed p cell =
  let d = Array.length cell in
  let steps = ref [] in
  let push pkind pnode = steps := { pkind; pnode } :: !steps in
  let finish poutcome presult =
    { pcell = Cell.copy cell; psteps = List.rev !steps; poutcome; presult }
  in
  let rec searchroute_x node dim v =
    match Packed.find_step p node dim v with
    | Some (Packed.Edge n) ->
      push Tree_edge n;
      Some n
    | Some (Packed.Link n) ->
      push Link n;
      Some n
    | None ->
      let child = Packed.last_child p node in
      if child >= 0 && Packed.dim p child < dim then begin
        push Last_dim_hop child;
        searchroute_x child dim v
      end
      else None
  in
  let rec descend_x node =
    match Packed.agg p node with
    | Some agg -> Some (node, agg)
    | None ->
      let child = Packed.last_child p node in
      if child >= 0 then begin
        push Descend child;
        descend_x child
      end
      else None
  in
  let rec consume node i =
    if i >= d then
      match descend_x node with
      | None -> finish Miss_no_class None
      | Some (n, agg) ->
        if path_dominates_p p n cell then finish Hit (Some (n, agg))
        else finish Miss_not_dominating None
    else if cell.(i) = Cell.all then consume node (i + 1)
    else
      match searchroute_x node i cell.(i) with
      | Some next -> consume next (i + 1)
      | None -> finish (Miss_no_route i) None
  in
  consume (Packed.root p) 0

let nodes_touched_packed e = 1 + List.length e.psteps

let record_packed_explanation e =
  Metrics.incr m_point;
  List.iter
    (fun s ->
      match s.pkind with
      | Tree_edge -> Metrics.incr m_edge_steps
      | Link -> Metrics.incr m_link_steps
      | Last_dim_hop -> Metrics.incr m_hops
      | Descend -> Metrics.incr m_descends)
    e.psteps;
  Metrics.observe h_path_nodes (nodes_touched_packed e);
  if e.poutcome = Hit then Metrics.incr m_point_hits

let pp_packed_explanation p ppf e =
  let schema = Packed.schema p in
  let outcome_str =
    match e.poutcome with
    | Hit -> "HIT"
    | Miss_no_route i ->
      Printf.sprintf "MISS (no route on dimension %s)" (Schema.dim_name schema i)
    | Miss_no_class -> "MISS (no class below the reached prefix)"
    | Miss_not_dominating -> "MISS (reached bound disagrees with the query cell)"
  in
  Format.fprintf ppf "point %s: %s, %d nodes touched@." (Cell.to_string schema e.pcell)
    outcome_str (nodes_touched_packed e);
  Format.fprintf ppf "  root@.";
  List.iter
    (fun { pkind; pnode } ->
      Format.fprintf ppf "  %-7s %s=%s -> %s@." (step_kind_name pkind)
        (Schema.dim_name schema (Packed.dim p pnode))
        (Schema.decode_value schema (Packed.dim p pnode) (Packed.label p pnode))
        (Cell.to_string schema (Packed.node_cell p pnode)))
    e.psteps;
  match e.presult with
  | Some (node, agg) ->
    Format.fprintf ppf "  = class %s %a@."
      (Cell.to_string schema (Packed.node_cell p node))
      Agg.pp agg
  | None -> ()

let locate_with_agg_packed p cell =
  if Metrics.enabled () then begin
    let e = explain_packed p cell in
    record_packed_explanation e;
    e.presult
  end
  else
    let d = Array.length cell in
    let rec consume node i =
      if i >= d then descend_to_class_p p node
      else if cell.(i) = Cell.all then consume node (i + 1)
      else
        let next = searchroute_p p node i cell.(i) in
        if next >= 0 then consume next (i + 1) else -1
    in
    let node = consume (Packed.root p) 0 in
    if node >= 0 && path_dominates_p p node cell then
      match Packed.agg p node with Some agg -> Some (node, agg) | None -> None
    else None

let point_result_packed p cell =
  match check_arity (Schema.n_dims (Packed.schema p)) (Array.length cell) with
  | Error _ as e -> e
  | Ok () -> (
    match locate_with_agg_packed p cell with
    | Some (_, agg) -> Ok agg
    | None -> Error (Empty_cover (Cell.copy cell)))

let point_value_result_packed p func cell =
  Result.map (Agg.value func) (point_result_packed p cell)

let point_packed p cell = Result.to_option (point_result_packed p cell)

let point_value_packed p func cell =
  Result.to_option (point_value_result_packed p func cell)

let locate_packed p cell = Option.map fst (locate_with_agg_packed p cell)

let check_range_p p (q : range) =
  if Array.length q <> Schema.n_dims (Packed.schema p) then
    invalid_arg "Query.range_packed: arity mismatch with schema"

let range_packed p (q : range) =
  check_range_p p q;
  Metrics.incr m_range;
  Trace.with_span ~cat:"query" "query.range" @@ fun () ->
  let d = Array.length q in
  let inst = Cell.make_all d in
  let results = ref [] in
  let verify node agg =
    if path_dominates_p p node inst then begin
      Metrics.incr m_range_results;
      results := (Cell.copy inst, agg) :: !results
    end
  in
  let rec go node i =
    if i >= d then begin
      let cls = descend_to_class_p p node in
      if cls >= 0 then
        match Packed.agg p cls with Some a -> verify cls a | None -> ()
    end
    else if Array.length q.(i) = 0 then go node (i + 1)
    else
      Array.iter
        (fun v ->
          Metrics.incr m_range_expansions;
          inst.(i) <- v;
          (let next = searchroute_p p node i v in
           if next >= 0 then go next (i + 1));
          inst.(i) <- Cell.all)
        q.(i)
  in
  go (Packed.root p) 0;
  Trace.add_attr "results" (Trace.Int (List.length !results));
  List.rev !results

let range_result_packed p (q : range) =
  match check_arity (Schema.n_dims (Packed.schema p)) (Array.length q) with
  | Error _ as e -> e
  | Ok () -> Ok (range_packed p q)

let node_accesses_packed p cell = nodes_touched_packed (explain_packed p cell)
