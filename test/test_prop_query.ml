(* Property-based differential testing of query answering.

   Every random instance is answered three ways — naive full-cube group-by
   (the oracle), the mutable QC-tree, and its frozen packed form — and the
   answers must agree cell for cell.  The packed form must additionally
   touch exactly as many nodes as the mutable tree on every point query:
   that structural parity is what justifies calling it a fast path rather
   than a different algorithm. *)

open Qc_cube
module T = Qc_core.Qc_tree
module P = Qc_core.Packed
module Q = Qc_core.Query

let point_opt t c = Result.to_option (Q.point_result t c)

let point_packed_opt p c = Result.to_option (Q.point_result_packed p c)

let range_list t r = Result.get_ok (Q.range_result t r)

let range_packed_list p r = Result.get_ok (Q.range_result_packed p r)

let build c =
  let table = Prop.table_of c in
  let tree = T.of_table table in
  (table, tree, P.of_tree tree)

let agg_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Agg.approx_equal x y
  | _ -> false

(* point queries: oracle vs tree vs packed, plus the iceberg-pruned oracle *)
let prop_point_differential c =
  let table, tree, packed = build c in
  let cube = Full_cube.compute table in
  let cube_ms = Full_cube.compute ~min_support:c.Prop.min_support table in
  let ok = ref true in
  Prop.iter_cells c (fun cell ->
      let truth = Full_cube.find cube cell in
      let tree_ans = point_opt tree cell in
      let packed_ans = point_packed_opt packed cell in
      if not (agg_opt_equal truth tree_ans) then ok := false;
      (* the packed answer must be *identical*, floats and all: both forms
         return the same stored aggregate *)
      if tree_ans <> packed_ans then ok := false;
      let expected_ms =
        match truth with
        | Some a when a.Agg.count >= c.Prop.min_support -> Some a
        | _ -> None
      in
      if not (agg_opt_equal (Full_cube.find cube_ms cell) expected_ms) then ok := false);
  !ok

(* Exactness: every partition a fresh build folds is in ascending row
   order, so every full-cube cell, every class and every fresh-tree or
   Dwarf point answer is bit-for-bit the fold [Table.cover_agg] computes —
   with float measures, whose sums depend on the order they are added in. *)
let prop_row_order_fold c =
  let table, tree, _ = build c in
  let cube = Full_cube.compute table in
  let dwarf = Qc_dwarf.Dwarf.build table in
  let exact agg cell = Agg.equal agg (Table.cover_agg table cell) in
  let same a b =
    match (a, b) with
    | Some a, Some b -> Agg.equal a b
    | None, None -> true
    | Some _, None | None, Some _ -> false
  in
  let ok = ref true in
  Full_cube.iter (fun cell agg -> if not (exact agg cell) then ok := false) cube;
  T.iter_classes (fun _ ub agg -> if not (exact agg ub) then ok := false) tree;
  Prop.iter_cells c (fun cell ->
      let truth = Full_cube.find cube cell in
      if not (same (point_opt tree cell) truth && same (Qc_dwarf.Dwarf.point dwarf cell) truth) then
        ok := false);
  !ok

(* identical node-access counts on every cell of the space *)
let prop_node_access_parity c =
  let _, tree, packed = build c in
  let ok = ref true in
  Prop.iter_cells c (fun cell ->
      if Q.node_accesses tree cell <> Q.node_accesses_packed packed cell then ok := false);
  !ok

(* range queries: oracle expansion vs tree vs packed *)
let prop_range_differential c =
  let table, tree, packed = build c in
  let cube = Full_cube.compute table in
  let expand (q : Q.range) =
    (* all instantiations of the range with a non-empty cover set *)
    let cell = Array.make c.Prop.dims Cell.all in
    let out = ref [] in
    let rec go i =
      if i >= c.Prop.dims then begin
        match Full_cube.find cube cell with
        | Some a -> out := (Array.to_list cell, a) :: !out
        | None -> ()
      end
      else if Array.length q.(i) = 0 then go (i + 1)
      else
        Array.iter
          (fun v ->
            cell.(i) <- v;
            go (i + 1);
            cell.(i) <- Cell.all)
          q.(i)
    in
    go 0;
    !out
  in
  let cmp (c1, _) (c2, _) = List.compare Int.compare c1 c2 in
  let canon l = List.sort cmp (List.map (fun (cl, a) -> (Array.to_list cl, a)) l) in
  let lists_equal xs ys =
    List.length xs = List.length ys
    && List.for_all2
         (fun (c1, a1) (c2, a2) -> List.equal Int.equal c1 c2 && Agg.approx_equal a1 a2)
         xs ys
  in
  List.for_all
    (fun q ->
      let expected = List.sort cmp (expand q) in
      lists_equal expected (canon (range_list tree q))
      && lists_equal expected (canon (range_packed_list packed q)))
    (Prop.random_ranges c 10)

(* iceberg queries: exactly the classes at or above the threshold, and each
   reported bound agrees with the oracle *)
let prop_iceberg_differential c =
  let table, tree, _ = build c in
  let cube = Full_cube.compute table in
  let threshold = float_of_int c.Prop.min_support in
  let result = Q.iceberg (Q.make_index tree Agg.Count) ~threshold in
  let expected = ref [] in
  T.iter_classes
    (fun _ ub agg ->
      if Agg.value Agg.Count agg >= threshold then expected := (Array.to_list ub, agg) :: !expected)
    tree;
  let sort l = List.sort (fun (c1, _) (c2, _) -> List.compare Int.compare c1 c2) l in
  let expected = sort !expected in
  let got = sort (List.map (fun (cl, a) -> (Array.to_list cl, a)) result) in
  List.length expected = List.length got
  && List.for_all2
       (fun (c1, a1) (c2, a2) ->
         List.equal Int.equal c1 c2 && Agg.approx_equal a1 a2
         && agg_opt_equal (Full_cube.find cube (Array.of_list c1)) (Some a1))
       expected got

(* freeze / thaw: packing is lossless down to the canonical form *)
let prop_freeze_thaw_roundtrip c =
  let _, tree, packed = build c in
  T.canonical_string (P.to_tree packed) = T.canonical_string tree
  && P.n_nodes packed = T.n_nodes tree
  && P.n_links packed = T.n_links tree
  && P.n_classes packed = T.n_classes tree

(* every generated tree passes the full invariant audit — structure, packed
   columns, serialized bytes, round trips, class DFS and sampled oracle
   queries against the base table *)
let prop_invariant_audit c =
  let table, tree, _ = build c in
  Prop.check_clean ~deep:true ~base:table tree

let () =
  Alcotest.run "qc_prop_query"
    [
      ( "differential",
        [
          Prop.qcheck_case ~count:220 ~name:"point queries match the full cube (tree and packed)"
            Prop.arb_case prop_point_differential;
          Prop.qcheck_case ~count:200
            ~name:"fresh aggregates are the row-order fold, bit for bit (float measures)"
            Prop.arb_float_case prop_row_order_fold;
          Prop.qcheck_case ~count:220 ~name:"packed point queries touch exactly as many nodes"
            Prop.arb_case prop_node_access_parity;
          Prop.qcheck_case ~count:200 ~name:"range queries match the oracle (tree and packed)"
            Prop.arb_case prop_range_differential;
          Prop.qcheck_case ~count:200 ~name:"iceberg queries return exactly the heavy classes"
            Prop.arb_case prop_iceberg_differential;
        ] );
      ( "structure",
        [
          Prop.qcheck_case ~count:200 ~name:"freeze/thaw round-trips canonically" Prop.arb_case
            prop_freeze_thaw_roundtrip;
          Prop.qcheck_case ~count:150 ~name:"generated trees pass the full invariant audit"
            Prop.arb_case prop_invariant_audit;
        ] );
    ]
