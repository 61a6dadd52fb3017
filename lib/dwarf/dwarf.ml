open Qc_cube
module Metrics = Qc_util.Metrics

(* Construction-side work counters for the comparison system: distinct
   nodes materialized vs sub-dwarfs shared by suffix coalescing — the
   tradeoff Figures 12 and 15 measure in bytes. *)
let m_nodes = Metrics.counter "dwarf.nodes_created"

let m_coalesce = Metrics.counter "dwarf.coalesce_hits"

let m_point = Metrics.counter "dwarf.point"

type node =
  | Inner of {
      id : int;
      keys : int array;  (** sorted dimension values *)
      kids : node array;
      all : node;  (** sub-dwarf with this dimension generalized *)
    }
  | Leaf of {
      id : int;
      keys : int array;
      aggs : Agg.t array;
      all : Agg.t;
    }

type t = {
  schema : Schema.t;
  root : node option;
  dims : int;
}

let node_id = function Inner { id; _ } -> id | Leaf { id; _ } -> id

type coalescing = Hash_cons | Single_cell | No_coalescing

let build ?(coalescing = Hash_cons) table =
  let schema = Table.schema table in
  let d = Table.n_dims table in
  let n = Table.n_rows table in
  let counter = ref 0 in
  let fresh () =
    let id = !counter in
    incr counter;
    id
  in
  (* Suffix coalescing by hash-consing: structurally identical sub-dwarfs
     are stored once.  The immediate single-cell rule (ALL of a one-value
     node is that value's sub-dwarf) falls out as a special case.  The
     weaker modes exist for the ablation benchmark. *)
  let memoize = coalescing = Hash_cons in
  let leaf_memo : (int array * Agg.t array * Agg.t, node) Hashtbl.t = Hashtbl.create 4096 in
  let inner_memo : (int array * int array * int, node) Hashtbl.t = Hashtbl.create 4096 in
  let cons_leaf keys aggs all =
    let key = (keys, aggs, all) in
    match (if memoize then Hashtbl.find_opt leaf_memo key else None) with
    | Some node ->
      Metrics.incr m_coalesce;
      node
    | None ->
      Metrics.incr m_nodes;
      let node = Leaf { id = fresh (); keys; aggs; all } in
      if memoize then Hashtbl.replace leaf_memo key node;
      node
  in
  let cons_inner keys kids all =
    let key = (keys, Array.map node_id kids, node_id all) in
    match (if memoize then Hashtbl.find_opt inner_memo key else None) with
    | Some node ->
      Metrics.incr m_coalesce;
      node
    | None ->
      Metrics.incr m_nodes;
      let node = Inner { id = fresh (); keys; kids; all } in
      if memoize then Hashtbl.replace inner_memo key node;
      node
  in
  let root =
    if n = 0 then None
    else begin
      let bufs = Table.index_buffers table in
      (* A node at [level] groups its slice of [bufs.(src)] on dimension
         [level] into [bufs.(level + 1)]; its children read that buffer, and
         its ALL child re-groups the node's own source slice.  Every call
         below writes only deeper buffers, so both stay intact. *)
      let rec make src lo hi level =
        let dst = bufs.(level + 1) in
        let keys = ref [] in
        if level = d - 1 then begin
          let aggs = ref [] in
          Table.partition table ~src:bufs.(src) ~dst ~lo ~hi ~dim:level (fun v glo ghi ->
              keys := v :: !keys;
              aggs := Table.agg_of_range table dst ~lo:glo ~hi:ghi :: !aggs);
          cons_leaf
            (Array.of_list (List.rev !keys))
            (Array.of_list (List.rev !aggs))
            (Table.agg_of_range table bufs.(src) ~lo ~hi)
        end
        else begin
          let kids = ref [] in
          Table.partition table ~src:bufs.(src) ~dst ~lo ~hi ~dim:level (fun v glo ghi ->
              keys := v :: !keys;
              kids := make (level + 1) glo ghi (level + 1) :: !kids);
          let kids = Array.of_list (List.rev !kids) in
          let all =
            match kids with
            | [| only |] when coalescing <> No_coalescing -> only
            | _ -> make src lo hi (level + 1)
          in
          cons_inner (Array.of_list (List.rev !keys)) kids all
        end
      in
      Some (make 0 0 n 0)
    end
  in
  { schema; root; dims = d }

let schema t = t.schema

let find_key keys v =
  (* Binary search in the sorted key array. *)
  let lo = ref 0 and hi = ref (Array.length keys) in
  let found = ref (-1) in
  while !lo < !hi && !found < 0 do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) = v then found := mid
    else if keys.(mid) < v then lo := mid + 1
    else hi := mid
  done;
  if !found < 0 then None else Some !found

let point t cell =
  if Array.length cell <> t.dims then invalid_arg "Dwarf.point: arity mismatch";
  Metrics.incr m_point;
  let rec go node level =
    match node with
    | Leaf { keys; aggs; all; _ } ->
      if cell.(level) = Cell.all then Some all
      else Option.map (fun i -> aggs.(i)) (find_key keys cell.(level))
    | Inner { keys; kids; all; _ } ->
      if cell.(level) = Cell.all then go all (level + 1)
      else (
        match find_key keys cell.(level) with
        | Some i -> go kids.(i) (level + 1)
        | None -> None)
  in
  Option.bind t.root (fun root -> go root 0)

let point_value t func cell = Option.map (Agg.value func) (point t cell)

type range = int array array

let range t (q : range) =
  if Array.length q <> t.dims then invalid_arg "Dwarf.range: arity mismatch";
  let results = ref [] in
  let inst = Cell.make_all t.dims in
  let emit agg = results := (Cell.copy inst, agg) :: !results in
  let rec go node level =
    match node with
    | Leaf { keys; aggs; all; _ } ->
      if Array.length q.(level) = 0 then emit all
      else
        Array.iter
          (fun v ->
            match find_key keys v with
            | Some i ->
              inst.(level) <- v;
              emit aggs.(i);
              inst.(level) <- Cell.all
            | None -> ())
          q.(level)
    | Inner { keys; kids; all; _ } ->
      if Array.length q.(level) = 0 then go all (level + 1)
      else
        Array.iter
          (fun v ->
            match find_key keys v with
            | Some i ->
              inst.(level) <- v;
              go kids.(i) (level + 1);
              inst.(level) <- Cell.all
            | None -> ())
          q.(level)
  in
  Option.iter (fun root -> go root 0) t.root;
  List.rev !results

(* Fold over distinct nodes (coalesced sub-dwarfs visited once). *)
let fold_nodes f t init =
  let seen = Hashtbl.create 1024 in
  let acc = ref init in
  let rec go node =
    let id = node_id node in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      acc := f !acc node;
      match node with
      | Inner { kids; all; _ } ->
        Array.iter go kids;
        go all
      | Leaf _ -> ()
    end
  in
  Option.iter go t.root;
  !acc

let n_nodes t = fold_nodes (fun acc _ -> acc + 1) t 0

let n_cells t =
  fold_nodes
    (fun acc node ->
      match node with
      | Inner { keys; _ } -> acc + Array.length keys + 1
      | Leaf { keys; _ } -> acc + Array.length keys + 1)
    t 0

let bytes t =
  let open Qc_util.Size in
  fold_nodes
    (fun acc node ->
      match node with
      | Inner { keys; _ } ->
        acc + pointer_bytes (* header *)
        + (Array.length keys * (value_bytes + pointer_bytes))
        + pointer_bytes (* ALL cell *)
      | Leaf { keys; _ } ->
        acc + pointer_bytes
        + (Array.length keys * (value_bytes + measure_bytes))
        + measure_bytes)
    t 0

let node_accesses t cell =
  if Array.length cell <> t.dims then invalid_arg "Dwarf.node_accesses: arity mismatch";
  (* Count the nodes the point descent actually touches: one per level on a
     hit — the "exactly n nodes" property of Sec. 6.2 — and a shorter
     prefix when the search misses partway down. *)
  match t.root with
  | None -> 0
  | Some root ->
    let rec go node level acc =
      let acc = acc + 1 in
      match node with
      | Leaf _ -> acc
      | Inner { keys; kids; all; _ } ->
        if cell.(level) = Cell.all then go all (level + 1) acc
        else (
          match find_key keys cell.(level) with
          | Some i -> go kids.(i) (level + 1) acc
          | None -> acc)
    in
    go root 0 0

(* ---------- the Engine instance ----------

   Dwarf stores every cell of the full cube, so a point answer's "class"
   is the queried cell itself; iceberg queries over class upper bounds
   have no Dwarf analogue and are reported as unsupported rather than
   faked by enumerating the exponential full cube. *)

module E = Qc_core.Engine

module Backend = struct
  type nonrec t = t

  let name = "dwarf"

  let schema = schema

  let describe t =
    Printf.sprintf "Dwarf full cube: %d nodes, %d cells, %d dimensions" (n_nodes t)
      (n_cells t) t.dims

  let arity t width =
    if t.dims <> width then Error (E.Arity_mismatch { expected = t.dims; got = width })
    else Ok ()

  let point t cell =
    match arity t (Array.length cell) with
    | Error _ as e -> e
    | Ok () -> (
      match point t cell with
      | Some agg -> Ok agg
      | None -> Error (E.Empty_cover (Cell.copy cell)))

  let range t q =
    match arity t (Array.length q) with Error _ as e -> e | Ok () -> Ok (range t q)

  let iceberg _t _func ~threshold =
    ignore threshold;
    Error (E.Unsupported { backend = name; operation = "iceberg queries" })

  (* The descent synthesized as an explanation: a matched key is the
     analogue of a labeled tree edge, following an ALL pointer the
     analogue of descending, and a missing key a no-route miss on that
     dimension. *)
  let explain t cell =
    match arity t (Array.length cell) with
    | Error _ as e -> e
    | Ok () ->
      let steps = ref [] in
      let prefix = Cell.make_all t.dims in
      let push kind level label =
        if label <> Cell.all then prefix.(level) <- label;
        steps :=
          {
            E.step_kind = kind;
            E.step_dim = level;
            E.step_label = label;
            E.step_cell = Cell.copy prefix;
          }
          :: !steps
      in
      let finish outcome answer =
        Ok
          {
            E.x_cell = Cell.copy cell;
            E.x_steps = List.rev !steps;
            E.x_outcome = outcome;
            E.x_answer = answer;
          }
      in
      let rec go node level =
        match node with
        | Leaf { keys; aggs; all; _ } ->
          if cell.(level) = Cell.all then finish Qc_core.Query.Hit (Some (Cell.copy cell, all))
          else (
            match find_key keys cell.(level) with
            | Some i -> finish Qc_core.Query.Hit (Some (Cell.copy cell, aggs.(i)))
            | None -> finish (Qc_core.Query.Miss_no_route level) None)
        | Inner { keys; kids; all; _ } ->
          if cell.(level) = Cell.all then begin
            push Qc_core.Query.Descend level Cell.all;
            go all (level + 1)
          end
          else (
            match find_key keys cell.(level) with
            | Some i ->
              push Qc_core.Query.Tree_edge level cell.(level);
              go kids.(i) (level + 1)
            | None -> finish (Qc_core.Query.Miss_no_route level) None)
      in
      (match t.root with
      | None -> finish (Qc_core.Query.Miss_no_route 0) None
      | Some root -> go root 0)

  let node_accesses t cell =
    match arity t (Array.length cell) with
    | Error _ as e -> e
    | Ok () -> Ok (node_accesses t cell)
end
