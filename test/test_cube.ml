open Qc_cube

(* ---------- Cell ---------- *)

let c a = Array.of_list a

let test_cell_rollup () =
  (* (S1,P1,s) rolls up to (S1,*,s) — paper Example 1. *)
  Alcotest.(check bool) "rolls up" true (Cell.rolls_up_to (c [ 1; 1; 1 ]) (c [ 1; 0; 1 ]));
  Alcotest.(check bool) "not reverse" false (Cell.rolls_up_to (c [ 1; 0; 1 ]) (c [ 1; 1; 1 ]));
  Alcotest.(check bool) "everything to all-*" true (Cell.rolls_up_to (c [ 1; 2; 3 ]) (c [ 0; 0; 0 ]));
  Alcotest.(check bool) "reflexive" true (Cell.rolls_up_to (c [ 1; 0; 2 ]) (c [ 1; 0; 2 ]));
  Alcotest.(check bool) "value mismatch" false (Cell.rolls_up_to (c [ 1; 1; 1 ]) (c [ 2; 0; 0 ]))

let test_cell_covers () =
  (* Cover set of (S1,*,s) is both S1-spring tuples — paper Section 2.2. *)
  Alcotest.(check bool) "covers" true (Cell.covers (c [ 1; 0; 1 ]) (c [ 1; 2; 1 ]));
  Alcotest.(check bool) "no" false (Cell.covers (c [ 1; 0; 1 ]) (c [ 2; 1; 2 ]))

let test_cell_meet () =
  Alcotest.(check (array int)) "meet keeps agreement" (c [ 1; 0; 0 ])
    (Cell.meet (c [ 1; 2; 0 ]) (c [ 1; 3; 1 ]));
  Alcotest.(check (array int)) "meet idempotent" (c [ 1; 2; 0 ])
    (Cell.meet (c [ 1; 2; 0 ]) (c [ 1; 2; 0 ]))

let test_cell_dominates () =
  Alcotest.(check bool) "dominates" true (Cell.dominates (c [ 1; 2; 3 ]) (c [ 1; 0; 3 ]));
  Alcotest.(check bool) "not" false (Cell.dominates (c [ 1; 2; 3 ]) (c [ 2; 0; 3 ]));
  Alcotest.(check bool) "all-* dominated by anything" true (Cell.dominates (c [ 5; 5 ]) (c [ 0; 0 ]))

let test_cell_orders () =
  (* Dictionary order with * first. *)
  Alcotest.(check bool) "star first" true (Cell.compare_dict (c [ 0; 1 ]) (c [ 1; 0 ]) < 0);
  Alcotest.(check bool) "rev: star last" true (Cell.compare_rev_dict (c [ 0; 1 ]) (c [ 1; 0 ]) > 0);
  Alcotest.(check int) "equal" 0 (Cell.compare_dict (c [ 1; 2 ]) (c [ 1; 2 ]))

let cell_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "%s %s"
        (String.concat "," (List.map string_of_int (Array.to_list a)))
        (String.concat "," (List.map string_of_int (Array.to_list b))))
    QCheck.Gen.(
      let* d = int_range 1 5 in
      let cell = array_size (return d) (int_range 0 3) in
      let* a = cell in
      let* b = cell in
      return (a, b))

let prop_meet_lower_bound =
  Helpers.qcheck_case ~name:"meet is a common generalization" cell_pair (fun (a, b) ->
      let m = Cell.meet a b in
      Cell.rolls_up_to a m && Cell.rolls_up_to b m)

let prop_rollup_transitive =
  Helpers.qcheck_case ~name:"roll-up is transitive via meet" cell_pair (fun (a, b) ->
      let m = Cell.meet a b in
      (* meet of (a, m) is m again: the glb is idempotent downward *)
      Cell.equal (Cell.meet a m) m)

(* ---------- Agg ---------- *)

let test_agg_basic () =
  let a = Agg.merge (Agg.of_measure 6.0) (Agg.of_measure 12.0) in
  Alcotest.(check (float 1e-9)) "avg" 9.0 (Agg.value Agg.Avg a);
  Alcotest.(check (float 1e-9)) "sum" 18.0 (Agg.value Agg.Sum a);
  Alcotest.(check (float 1e-9)) "count" 2.0 (Agg.value Agg.Count a);
  Alcotest.(check (float 1e-9)) "min" 6.0 (Agg.value Agg.Min a);
  Alcotest.(check (float 1e-9)) "max" 12.0 (Agg.value Agg.Max a)

let test_agg_empty_identity () =
  let a = Agg.of_measure 3.0 in
  Alcotest.(check Helpers.agg_testable) "left id" a (Agg.merge Agg.empty a);
  Alcotest.(check Helpers.agg_testable) "right id" a (Agg.merge a Agg.empty);
  Alcotest.(check bool) "avg of empty is nan" true (Float.is_nan (Agg.value Agg.Avg Agg.empty))

let test_agg_unmerge () =
  let ab = Agg.merge (Agg.of_measure 5.0) (Agg.of_measure 7.0) in
  let a = Agg.unmerge ab (Agg.of_measure 7.0) in
  Alcotest.(check int) "count" 1 a.Agg.count;
  Alcotest.(check (float 1e-9)) "sum" 5.0 a.Agg.sum

let test_agg_func_strings () =
  List.iter
    (fun f ->
      Alcotest.(check string) "roundtrip" (Agg.func_to_string f)
        (Agg.func_to_string (Agg.func_of_string (Agg.func_to_string f))))
    [ Agg.Count; Agg.Sum; Agg.Avg; Agg.Min; Agg.Max ]

let measures = QCheck.(list_of_size Gen.(int_range 1 20) (float_range (-100.) 100.))

let prop_agg_merge_assoc =
  Helpers.qcheck_case ~name:"merge order independent (approximately)" measures (fun ms ->
      let left = List.fold_left (fun acc m -> Agg.merge acc (Agg.of_measure m)) Agg.empty ms in
      let right =
        List.fold_right (fun m acc -> Agg.merge (Agg.of_measure m) acc) ms Agg.empty
      in
      Agg.approx_equal left right)

(* ---------- Table ---------- *)

let test_table_basics () =
  let t = Helpers.sales_table () in
  Alcotest.(check int) "rows" 3 (Table.n_rows t);
  Alcotest.(check int) "dims" 3 (Table.n_dims t);
  Alcotest.(check (float 1e-9)) "measure" 12.0 (Table.measure t 1);
  Alcotest.(check (option int)) "find row" (Some 0) (Table.find_row t (c [ 1; 1; 1 ]))

let test_table_cover_agg () =
  let t = Helpers.sales_table () in
  (* Cover of (S1,*,s) = first two tuples, AVG 9 (paper). *)
  let a = Table.cover_agg t (c [ 1; 0; 1 ]) in
  Alcotest.(check int) "count" 2 a.Agg.count;
  Alcotest.(check (float 1e-9)) "avg" 9.0 (Agg.value Agg.Avg a);
  let empty = Table.cover_agg t (c [ 2; 0; 1 ]) in
  Alcotest.(check int) "empty cover" 0 empty.Agg.count

(* One [Table.partition] call checked against its contract: the groups tile
   [lo, hi) in increasing value order, hold every source row once, keep
   the source order within a group, and nothing outside [dst.(lo..hi-1)]
   is written. *)
let check_partition t src ~lo ~hi ~dim =
  let src_before = Array.copy src in
  let sentinel = -7 in
  let dst = Array.make (Array.length src) sentinel in
  let groups = ref [] in
  Table.partition t ~src ~dst ~lo ~hi ~dim (fun v glo ghi -> groups := (v, glo, ghi) :: !groups);
  let groups = List.rev !groups in
  Alcotest.(check (array int)) "source untouched" src_before src;
  Array.iteri
    (fun i x -> if i < lo || i >= hi then Alcotest.(check int) "dst outside [lo, hi)" sentinel x)
    dst;
  let key row = (Table.tuple t row).(dim) in
  let pos = Array.make (Table.n_rows t) (-1) in
  for i = lo to hi - 1 do
    pos.(src.(i)) <- i
  done;
  let next = ref lo and last = ref None in
  List.iter
    (fun (v, glo, ghi) ->
      Alcotest.(check int) "contiguous" !next glo;
      Alcotest.(check bool) "non-empty" true (ghi > glo);
      (match !last with
      | Some u -> Alcotest.(check bool) "ascending values" true (u < v)
      | None -> ());
      for i = glo to ghi - 1 do
        Alcotest.(check int) "grouped" v (key dst.(i));
        if i > glo then
          Alcotest.(check bool) "source order kept" true
            (pos.(dst.(i - 1)) < pos.(dst.(i)))
      done;
      next := ghi;
      last := Some v)
    groups;
  Alcotest.(check int) "covers the slice" hi !next;
  let sorted a = List.sort Int.compare (Array.to_list a) in
  Alcotest.(check (list int)) "every row once"
    (sorted (Array.sub src lo (hi - lo)))
    (sorted (Array.sub dst lo (hi - lo)));
  groups

(* A table whose first dimension holds [codes]; [Table.add_encoded] takes
   codes the dictionary never saw. *)
let codes_table codes =
  let t = Table.create (Schema.create [ "A"; "B" ]) in
  Array.iteri (fun i code -> Table.add_encoded t (c [ code; 1 + (i mod 3) ]) (float_of_int i)) codes;
  t

let test_table_partition () =
  let rng = Qc_util.Rng.create 3 in
  let t = Helpers.random_table rng ~dims:3 ~card:4 ~rows:40 () in
  let idx = Table.all_indices t in
  (* counting sort: 40 rows over 4 values *)
  let groups = check_partition t idx ~lo:0 ~hi:40 ~dim:1 in
  Alcotest.(check bool) "several groups" true (List.length groups > 1);
  (* a sub-slice of a shuffled index array: stability is relative to the
     source order, not to row numbers *)
  let shuffled = Array.copy idx in
  Qc_util.Rng.shuffle rng shuffled;
  ignore (check_partition t shuffled ~lo:5 ~hi:35 ~dim:0);
  (* insertion sort: at most 16 rows *)
  ignore (check_partition t shuffled ~lo:3 ~hi:15 ~dim:2);
  ignore (check_partition t shuffled ~lo:7 ~hi:8 ~dim:2);
  Alcotest.(check int) "empty slice has no groups" 0
    (List.length (check_partition t shuffled ~lo:9 ~hi:9 ~dim:0));
  (* merge sort: 30 rows spread over a value range far above 4 x 30, with
     repeated values and codes the dictionary never saw *)
  let spread =
    Array.init 30 (fun i -> match i mod 5 with 0 -> 1 | 1 -> 1_000_000 | 2 -> 500 | 3 -> max_int | _ -> 3)
  in
  let ts = codes_table spread in
  let all = Table.all_indices ts in
  Qc_util.Rng.shuffle rng all;
  let groups = check_partition ts all ~lo:0 ~hi:30 ~dim:0 in
  Alcotest.(check (list int)) "spread values" [ 1; 3; 500; 1_000_000; max_int ]
    (List.map (fun (v, _, _) -> v) groups);
  (* counting sort over unseen codes in a narrow window far from 0, and a
     window next to max_int, where the range test must not overflow *)
  let whole codes = check_partition (codes_table codes) (Array.init 40 Fun.id) ~lo:0 ~hi:40 ~dim:0 in
  ignore (whole (Array.init 40 (fun i -> 5_000_000 + (i * 7 mod 23))));
  ignore (whole (Array.init 40 (fun i -> max_int - (i mod 6))))

let test_table_remove_append () =
  let t = Helpers.sales_table () in
  let smaller = Table.remove_rows t (fun i -> i = 1) in
  Alcotest.(check int) "removed" 2 (Table.n_rows smaller);
  let delta = Table.sub t [ 1 ] in
  Table.append smaller delta;
  Alcotest.(check int) "appended" 3 (Table.n_rows smaller)

let test_table_rejects_star () =
  let t = Helpers.sales_table () in
  Alcotest.check_raises "no * in base tuples"
    (Invalid_argument "Table.add_encoded: base tuples may not contain *") (fun () ->
      Table.add_encoded t (c [ 1; 0; 1 ]) 1.0)

(* ---------- BUC ---------- *)

let naive_cube table =
  (* Ground truth by enumerating all cells and scanning covers. *)
  let dims = Table.n_dims table in
  let card = Schema.cardinality (Table.schema table) 0 in
  let cells = ref [] in
  Helpers.iter_all_cells ~dims ~card (fun cell ->
      let a = Table.cover_agg table cell in
      if a.Agg.count > 0 then cells := (Cell.copy cell, a) :: !cells);
  !cells

let test_buc_against_naive () =
  let rng = Qc_util.Rng.create 17 in
  for _ = 1 to 10 do
    let dims = 2 + Qc_util.Rng.int rng 2 in
    let card = 2 + Qc_util.Rng.int rng 2 in
    let rows = 1 + Qc_util.Rng.int rng 15 in
    let table = Helpers.random_table rng ~dims ~card ~rows () in
    let expected = naive_cube table in
    let cube = Full_cube.compute table in
    Alcotest.(check int) "cell count" (List.length expected) (Full_cube.n_cells cube);
    List.iter
      (fun (cell, truth) ->
        match Full_cube.find cube cell with
        | Some a when Agg.approx_equal a truth -> ()
        | Some a -> Alcotest.failf "wrong agg: %a vs %a" Agg.pp a Agg.pp truth
        | None -> Alcotest.fail "missing cell")
      expected
  done

let test_buc_iceberg () =
  let rng = Qc_util.Rng.create 23 in
  let table = Helpers.random_table rng ~dims:3 ~card:3 ~rows:30 () in
  let all = Full_cube.compute table in
  let iced = Full_cube.compute ~min_support:3 table in
  Alcotest.(check bool) "iceberg smaller" true (Full_cube.n_cells iced <= Full_cube.n_cells all);
  Full_cube.iter
    (fun cell agg ->
      Alcotest.(check bool) "meets support" true (agg.Agg.count >= 3);
      match Full_cube.find all cell with
      | Some a -> Alcotest.(check Helpers.agg_testable) "same agg" a agg
      | None -> Alcotest.fail "iceberg cell missing from full cube")
    iced;
  (* completeness: every full-cube cell with support >= 3 is in the iceberg *)
  Full_cube.iter
    (fun cell agg ->
      if agg.Agg.count >= 3 then
        Alcotest.(check bool) "present" true (Option.is_some (Full_cube.find iced cell)))
    all

let test_buc_empty_table () =
  let schema = Schema.create [ "A"; "B" ] in
  let table = Table.create schema in
  Alcotest.(check int) "no cells" 0 (Buc.count_cells table)

let test_buc_counts_match () =
  let rng = Qc_util.Rng.create 31 in
  let table = Helpers.random_table rng ~dims:3 ~card:3 ~rows:25 () in
  Alcotest.(check int) "count = materialized size" (Buc.count_cells table)
    (Full_cube.n_cells (Full_cube.compute table));
  Alcotest.(check int) "bytes" (Buc.cube_bytes table)
    (Full_cube.bytes (Full_cube.compute table) ~dims:3)

let () =
  Alcotest.run "qc_cube"
    [
      ( "cell",
        [
          Alcotest.test_case "roll-up" `Quick test_cell_rollup;
          Alcotest.test_case "covers" `Quick test_cell_covers;
          Alcotest.test_case "meet" `Quick test_cell_meet;
          Alcotest.test_case "dominates" `Quick test_cell_dominates;
          Alcotest.test_case "orders" `Quick test_cell_orders;
          prop_meet_lower_bound;
          prop_rollup_transitive;
        ] );
      ( "agg",
        [
          Alcotest.test_case "basic" `Quick test_agg_basic;
          Alcotest.test_case "identity" `Quick test_agg_empty_identity;
          Alcotest.test_case "unmerge" `Quick test_agg_unmerge;
          Alcotest.test_case "func strings" `Quick test_agg_func_strings;
          prop_agg_merge_assoc;
        ] );
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "cover agg" `Quick test_table_cover_agg;
          Alcotest.test_case "partition" `Quick test_table_partition;
          Alcotest.test_case "remove/append" `Quick test_table_remove_append;
          Alcotest.test_case "rejects *" `Quick test_table_rejects_star;
        ] );
      ( "buc",
        [
          Alcotest.test_case "matches naive cube" `Quick test_buc_against_naive;
          Alcotest.test_case "iceberg pruning" `Quick test_buc_iceberg;
          Alcotest.test_case "empty table" `Quick test_buc_empty_table;
          Alcotest.test_case "counting mode" `Quick test_buc_counts_match;
        ] );
    ]
