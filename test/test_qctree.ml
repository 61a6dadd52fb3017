open Qc_cube
module T = Qc_core.Qc_tree

(* ---------- The paper's running example, Figures 4 and 6 ---------- *)

let test_paper_temp_classes () =
  let table = Helpers.sales_table () in
  let classes = Qc_core.Dfs.run table in
  Alcotest.(check int) "11 temporary classes (Figure 6)" 11 (List.length classes);
  let schema = Table.schema table in
  let find id = List.find (fun (tc : Qc_core.Temp_class.t) -> tc.id = id) classes in
  let show cell = Cell.to_string schema cell in
  (* spot-check the rows of Figure 6 *)
  let i0 = find 0 in
  Alcotest.(check string) "i0 ub" "(*, *, *)" (show i0.ub);
  Alcotest.(check int) "i0 child" (-1) i0.child;
  let i5 = find 5 in
  Alcotest.(check string) "i5 ub" "(*, P1, *)" (show i5.ub);
  Alcotest.(check (float 1e-9)) "i5 avg 7.5" 7.5 (Agg.value Agg.Avg i5.agg);
  let i9 = find 9 in
  Alcotest.(check string) "i9 ub" "(S1, *, s)" (show i9.ub);
  Alcotest.(check string) "i9 lb" "(*, *, s)" (show i9.lb);
  Alcotest.(check int) "i9 child" 0 i9.child;
  let i10 = find 10 in
  Alcotest.(check string) "i10 ub" "(S2, P1, f)" (show i10.ub);
  Alcotest.(check string) "i10 lb" "(*, *, f)" (show i10.lb)

let test_paper_tree_shape () =
  let table = Helpers.sales_table () in
  let tree = T.of_table table in
  (* Figure 4: 10 labeled nodes + root, 6 classes, 5 drill-down links. *)
  Alcotest.(check int) "nodes" 11 (T.n_nodes tree);
  Alcotest.(check int) "classes" 6 (T.n_classes tree);
  Alcotest.(check int) "links" 5 (T.n_links tree);
  Alcotest.(check (result unit string)) "valid" (Ok ()) (T.validate tree)

let test_paper_class_aggregates () =
  let table = Helpers.sales_table () in
  let schema = Table.schema table in
  let tree = T.of_table table in
  (* The six classes of Figure 2(b)/Figure 4 with their AVG values. *)
  let expect =
    [
      ([ "*"; "*"; "*" ], 9.0);
      ([ "S1"; "P2"; "s" ], 12.0);
      ([ "S2"; "P1"; "f" ], 9.0);
      ([ "S1"; "*"; "s" ], 9.0);
      ([ "S1"; "P1"; "s" ], 6.0);
      ([ "*"; "P1"; "*" ], 7.5);
    ]
  in
  List.iter
    (fun (ub, avg) ->
      match T.find_path tree (Cell.parse schema ub) with
      | Some node -> (
        match node.T.agg with
        | Some a -> Alcotest.(check (float 1e-9)) (String.concat "," ub) avg (Agg.value Agg.Avg a)
        | None -> Alcotest.failf "no aggregate at %s" (String.concat "," ub))
      | None -> Alcotest.failf "missing path %s" (String.concat "," ub))
    expect

(* ---------- Structural properties on random tables ---------- *)

let build_of_config (dims, card, rows, seed) =
  let rng = Qc_util.Rng.create seed in
  let table = Helpers.random_table rng ~dims ~card ~rows () in
  (table, T.of_table table)

let prop_validate =
  Helpers.qcheck_case ~name:"construction yields a valid tree" Helpers.table_config
    (fun cfg ->
      let _, tree = build_of_config cfg in
      T.validate tree = Ok ())

let prop_unique_ub_paths =
  Helpers.qcheck_case ~name:"one class node per distinct upper bound (Theorem 1)"
    Helpers.table_config (fun cfg ->
      let table, tree = build_of_config cfg in
      let classes = Qc_core.Dfs.run table in
      let distinct = Cell.Tbl.create 64 in
      List.iter
        (fun (tc : Qc_core.Temp_class.t) -> Cell.Tbl.replace distinct tc.ub ())
        classes;
      T.n_classes tree = Cell.Tbl.length distinct)

let prop_class_agg_matches_cover =
  Helpers.qcheck_case ~name:"class node aggregate equals its cover aggregate"
    Helpers.table_config (fun cfg ->
      let table, tree = build_of_config cfg in
      let ok = ref true in
      T.iter_classes
        (fun _ ub agg ->
          if not (Agg.approx_equal agg (Table.cover_agg table ub)) then ok := false)
        tree;
      !ok)

let prop_ub_is_maximal =
  Helpers.qcheck_case ~name:"upper bounds are maximal in their class"
    Helpers.table_config (fun cfg ->
      let table, tree = build_of_config cfg in
      let dims = Table.n_dims table in
      let card = Schema.cardinality (Table.schema table) 0 in
      let ok = ref true in
      T.iter_classes
        (fun _ ub agg ->
          (* specializing any * dimension changes the cover set *)
          for j = 0 to dims - 1 do
            if ub.(j) = Cell.all then
              for v = 1 to card do
                let x = Cell.copy ub in
                x.(j) <- v;
                let a = Table.cover_agg table x in
                if a.Agg.count = agg.Agg.count && a.Agg.count > 0 then ok := false
              done
          done)
        tree;
      !ok)

let prop_tree_deterministic =
  Helpers.qcheck_case ~name:"construction is deterministic" Helpers.table_config (fun cfg ->
      let _, t1 = build_of_config cfg in
      let _, t2 = build_of_config cfg in
      T.canonical_string t1 = T.canonical_string t2)

let prop_insert_order_irrelevant =
  Helpers.qcheck_case ~name:"tree is unique given the class set (Theorem 1)"
    Helpers.table_config (fun (dims, card, rows, seed) ->
      (* Build from temp classes fed in a shuffled order: the sort inside
         construction must normalize it (ties keep generation ids, which we
         preserve). *)
      let rng = Qc_util.Rng.create seed in
      let table = Helpers.random_table rng ~dims ~card ~rows () in
      let classes = Qc_core.Dfs.run table in
      let arr = Array.of_list classes in
      Qc_util.Rng.shuffle rng arr;
      let t1 = T.of_temp_classes (Table.schema table) classes in
      let t2 = T.of_temp_classes (Table.schema table) (Array.to_list arr) in
      T.canonical_string t1 = T.canonical_string t2)

let prop_class_count_order_invariant =
  Helpers.qcheck_case ~count:60
    ~name:"the quotient partition is independent of dimension order" Helpers.table_config
    (fun (dims, card, rows, seed) ->
      let rng = Qc_util.Rng.create seed in
      let table = Helpers.random_table rng ~dims ~card ~rows () in
      (* permute dimensions and rebuild *)
      let perm = Array.init dims Fun.id in
      Qc_util.Rng.shuffle rng perm;
      let schema = Table.schema table in
      let names = List.init dims (fun i -> Schema.dim_name schema perm.(i)) in
      let schema' = Schema.create names in
      for i = 0 to dims - 1 do
        Array.iter
          (fun v -> ignore (Schema.encode_value schema' i v))
          (Qc_util.Dict.values (Schema.dict schema perm.(i)))
      done;
      let permuted = Table.create schema' in
      Table.iter
        (fun cell m -> Table.add_encoded permuted (Array.map (fun j -> cell.(j)) perm) m)
        table;
      let t1 = T.of_table table in
      let t2 = T.of_table permuted in
      (* classes are a property of the data, not of the dimension order
         (paper footnote 2: only node/link sharing depends on the order) *)
      T.n_classes t1 = T.n_classes t2)

let test_empty_table () =
  let schema = Schema.create [ "A"; "B" ] in
  let tree = T.of_table (Table.create schema) in
  Alcotest.(check int) "just the root" 1 (T.n_nodes tree);
  Alcotest.(check int) "no classes" 0 (T.n_classes tree)

let test_single_tuple () =
  let schema = Schema.create [ "A"; "B"; "C" ] in
  let table = Table.create schema in
  Table.add_row table [ "a"; "b"; "c" ] 5.0;
  let tree = T.of_table table in
  (* Everything collapses into one class with the tuple as upper bound. *)
  Alcotest.(check int) "one class" 1 (T.n_classes tree);
  Alcotest.(check int) "path nodes" 4 (T.n_nodes tree)

let test_node_cell_roundtrip () =
  let table = Helpers.sales_table () in
  let tree = T.of_table table in
  T.iter_classes
    (fun node ub _ ->
      match T.find_path tree ub with
      | Some n -> Alcotest.(check bool) "find_path inverts node_cell" true (n == node)
      | None -> Alcotest.fail "path lost")
    tree

let test_bytes_accounting () =
  let table = Helpers.sales_table () in
  let tree = T.of_table table in
  (* 10 non-root nodes, 5 links, 6 classes under the 4/4/8 model. *)
  Alcotest.(check int) "bytes" ((10 * 8) + (5 * 8) + (6 * 8)) (T.bytes tree)

(* Algorithm 1's work on two seeded tables, pinned: how a slice is grouped
   must not change which cells the DFS visits, opens, jumps or prunes, nor
   the tree it yields. *)
let check_dfs_work name table ~visits ~partitions ~jumps ~prunes ~nodes ~links ~classes =
  let module M = Qc_util.Metrics in
  M.reset ();
  M.set_enabled true;
  let tree = Fun.protect ~finally:(fun () -> M.set_enabled false) (fun () -> T.of_table table) in
  let value counter = M.value (M.counter counter) in
  List.iter
    (fun (what, want, got) -> Alcotest.(check int) (name ^ " " ^ what) want got)
    [
      ("dfs.visits", visits, value "dfs.visits");
      ("dfs.partitions_opened", partitions, value "dfs.partitions_opened");
      ("dfs.upper_bound_jumps", jumps, value "dfs.upper_bound_jumps");
      ("dfs.prunes", prunes, value "dfs.prunes");
      ("nodes", nodes, T.n_nodes tree);
      ("links", links, T.n_links tree);
      ("classes", classes, T.n_classes tree);
    ]

let test_dfs_work_pinned () =
  check_dfs_work "weather"
    (Qc_data.Weather.generate { Qc_data.Weather.rows = 3000; scale = 0.02; seed = 7 })
    ~visits:35101 ~partitions:35100 ~jumps:26645 ~prunes:11316 ~nodes:32096 ~links:11316
    ~classes:23785;
  check_dfs_work "synthetic"
    (Qc_data.Synthetic.generate { Qc_data.Synthetic.default with rows = 5000; dims = 6; seed = 42 })
    ~visits:32751 ~partitions:32750 ~jumps:46360 ~prunes:19320 ~nodes:18091 ~links:19320
    ~classes:13431

let () =
  Alcotest.run "qc_tree"
    [
      ( "paper example",
        [
          Alcotest.test_case "temp classes (Fig 6)" `Quick test_paper_temp_classes;
          Alcotest.test_case "tree shape (Fig 4)" `Quick test_paper_tree_shape;
          Alcotest.test_case "class aggregates" `Quick test_paper_class_aggregates;
        ] );
      ( "properties",
        [
          prop_validate;
          prop_unique_ub_paths;
          prop_class_agg_matches_cover;
          prop_ub_is_maximal;
          prop_tree_deterministic;
          prop_insert_order_irrelevant;
          prop_class_count_order_invariant;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty table" `Quick test_empty_table;
          Alcotest.test_case "single tuple" `Quick test_single_tuple;
          Alcotest.test_case "node_cell/find_path" `Quick test_node_cell_roundtrip;
          Alcotest.test_case "byte accounting" `Quick test_bytes_accounting;
        ] );
      ( "work",
        [ Alcotest.test_case "Algorithm 1 counters and tree size pinned" `Quick test_dfs_work_pinned ] );
    ]
