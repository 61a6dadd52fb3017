open Qc_cube
module T = Qc_core.Qc_tree
module Q = Qc_core.Query

let point_opt t c = Result.to_option (Q.point_result t c)

let point_value_opt t f c = Result.to_option (Q.point_value_result t f c)

let range_list t r = Result.get_ok (Q.range_result t r)

(* ---------- Paper Example 5: point queries on the running example ---------- *)

let test_example5 () =
  let table = Helpers.sales_table () in
  let schema = Table.schema table in
  let tree = T.of_table table in
  let q vals = point_value_opt tree Agg.Avg (Cell.parse schema vals) in
  Alcotest.(check (option (float 1e-9))) "(S2,*,f) = 9" (Some 9.0) (q [ "S2"; "*"; "f" ]);
  Alcotest.(check (option (float 1e-9))) "(S2,*,s) = null" None (q [ "S2"; "*"; "s" ]);
  Alcotest.(check (option (float 1e-9))) "(*,P2,*) = 12" (Some 12.0) (q [ "*"; "P2"; "*" ]);
  Alcotest.(check (option (float 1e-9))) "(*,*,*) = 9" (Some 9.0) (q [ "*"; "*"; "*" ]);
  Alcotest.(check (option (float 1e-9))) "(*,P1,*) = 7.5" (Some 7.5) (q [ "*"; "P1"; "*" ])

(* ---------- Paper Example 6: range query ---------- *)

let test_example6 () =
  let table = Helpers.sales_table () in
  let schema = Table.schema table in
  let tree = T.of_table table in
  (* ({S1,S2}, {P1}, f) — S3/P3 of the paper don't exist in the dictionary,
     so the encodable equivalent range is used; only (S2,P1,f) matches. *)
  let store = Schema.dict schema 0 and product = Schema.dict schema 1 in
  let season = Schema.dict schema 2 in
  let range =
    [|
      [| Option.get (Qc_util.Dict.find store "S1"); Option.get (Qc_util.Dict.find store "S2") |];
      [| Option.get (Qc_util.Dict.find product "P1") |];
      [| Option.get (Qc_util.Dict.find season "f") |];
    |]
  in
  match range_list tree range with
  | [ (cell, agg) ] ->
    Alcotest.(check string) "cell" "(S2, P1, f)" (Cell.to_string schema cell);
    Alcotest.(check (float 1e-9)) "agg" 9.0 (Agg.value Agg.Avg agg)
  | results -> Alcotest.failf "expected 1 result, got %d" (List.length results)

(* ---------- Exhaustive point-query correctness ---------- *)

let prop_point_queries_exact =
  Helpers.qcheck_case ~count:150 ~name:"point query = cover aggregate for every cell"
    Helpers.table_config (fun (dims, card, rows, seed) ->
      let rng = Qc_util.Rng.create seed in
      let table = Helpers.random_table rng ~dims ~card ~rows () in
      let tree = T.of_table table in
      Helpers.check_point_queries_against_table table (point_opt tree))

let prop_range_equals_points =
  Helpers.qcheck_case ~count:100 ~name:"range query = union of its point queries"
    Helpers.table_config (fun (dims, card, rows, seed) ->
      let rng = Qc_util.Rng.create seed in
      let table = Helpers.random_table rng ~dims ~card ~rows () in
      let tree = T.of_table table in
      (* random range query *)
      let q =
        Array.init dims (fun _ ->
            match Qc_util.Rng.int rng 3 with
            | 0 -> [||]
            | 1 -> [| 1 + Qc_util.Rng.int rng card |]
            | _ ->
              let a = 1 + Qc_util.Rng.int rng card and b = 1 + Qc_util.Rng.int rng card in
              if a = b then [| a |] else [| min a b; max a b |])
      in
      let results = range_list tree q in
      let expected =
        List.filter_map
          (fun cell ->
            match point_opt tree cell with Some a -> Some (cell, a) | None -> None)
          (Q.range_of_cells tree q)
      in
      let norm l =
        let cmp (c1, n1, s1) (c2, n2, s2) =
        let c = List.compare Int.compare c1 c2 in
        if c <> 0 then c
        else
          let c = Int.compare n1 n2 in
          if c <> 0 then c else Float.compare s1 s2
      in
      List.sort cmp (List.map (fun (c, a) -> (Array.to_list c, a.Agg.count, a.Agg.sum)) l)
      in
      norm results = norm expected)

(* ---------- Iceberg queries ---------- *)

let prop_iceberg_complete =
  Helpers.qcheck_case ~count:80 ~name:"iceberg = classes above threshold"
    Helpers.table_config (fun (dims, card, rows, seed) ->
      let rng = Qc_util.Rng.create seed in
      let table = Helpers.random_table rng ~dims ~card ~rows () in
      let tree = T.of_table table in
      let idx = Q.make_index tree Agg.Count in
      let threshold = float_of_int (1 + Qc_util.Rng.int rng 4) in
      let results = Q.iceberg idx ~threshold in
      (* equivalent scan over class nodes *)
      let expected = ref 0 in
      T.iter_classes
        (fun _ _ agg -> if Agg.value Agg.Count agg >= threshold then incr expected)
        tree;
      List.length results = !expected
      && List.for_all (fun (_, a) -> Agg.value Agg.Count a >= threshold) results)

let prop_iceberg_range_strategies_agree =
  Helpers.qcheck_case ~count:80 ~name:"constrained iceberg: filter and mark agree"
    Helpers.table_config (fun (dims, card, rows, seed) ->
      let rng = Qc_util.Rng.create seed in
      let table = Helpers.random_table rng ~dims ~card ~rows () in
      let tree = T.of_table table in
      let idx = Q.make_index tree Agg.Sum in
      let q =
        Array.init dims (fun _ ->
            match Qc_util.Rng.int rng 3 with
            | 0 -> [||]
            | 1 -> [| 1 + Qc_util.Rng.int rng card |]
            | _ -> Array.init (min 2 card) (fun i -> i + 1))
      in
      let threshold = float_of_int (Qc_util.Rng.int rng 100) in
      let norm l =
        let cmp (c1, n1, s1) (c2, n2, s2) =
        let c = List.compare Int.compare c1 c2 in
        if c <> 0 then c
        else
          let c = Int.compare n1 n2 in
          if c <> 0 then c else Float.compare s1 s2
      in
      List.sort cmp (List.map (fun (c, (a : Agg.t)) -> (Array.to_list c, a.count, a.sum)) l)
      in
      norm (Q.iceberg_range ~strategy:`Filter tree idx q ~threshold)
      = norm (Q.iceberg_range ~strategy:`Mark tree idx q ~threshold))

(* Four rows, two with a NaN measure: every class over an x row has a NaN
   SUM.  Such a class is at least no threshold, and a NaN threshold keeps
   nothing — the rule the packed index follows. *)
let nan_table () =
  let schema = Schema.create [ "A"; "B" ] in
  let table = Table.create schema in
  Table.add_row table [ "x"; "p" ] nan;
  Table.add_row table [ "x"; "q" ] nan;
  Table.add_row table [ "y"; "q" ] 1.0;
  Table.add_row table [ "z"; "r" ] 10.0;
  table

let show_answers schema answers =
  List.map
    (fun (c, a) -> Printf.sprintf "%s=%g" (Cell.to_string schema c) (Agg.value Agg.Sum a))
    answers

let test_iceberg_nan () =
  let table = nan_table () in
  let schema = Table.schema table in
  let tree = T.of_table table in
  let idx = Q.make_index tree Agg.Sum in
  let check name expected threshold =
    Alcotest.(check (list string)) name expected (show_answers schema (Q.iceberg idx ~threshold))
  in
  check "sum >= 5" [ "(z, r)=10" ] 5.0;
  check "sum >= -inf, ascending" [ "(y, q)=1"; "(z, r)=10" ] neg_infinity;
  check "sum >= 10" [ "(z, r)=10" ] 10.0;
  check "sum >= 11" [] 11.0;
  check "NaN threshold" [] nan;
  (* the packed iceberg of the served path gives the same answers *)
  let packed = Qc_core.Packed.of_tree tree in
  List.iter
    (fun threshold ->
      match Qc_core.Engine.Packed_backend.iceberg packed Agg.Sum ~threshold with
      | Ok got ->
        let sort = List.sort String.compare in
        Alcotest.(check (list string))
          (Printf.sprintf "packed agrees at %g" threshold)
          (sort (show_answers schema (Q.iceberg idx ~threshold)))
          (sort (show_answers schema got))
      | Error _ -> Alcotest.fail "packed iceberg failed")
    [ neg_infinity; 0.0; 1.0; 5.0; 10.0; nan ];
  (* COUNT has no NaN: every class with two rows qualifies *)
  Alcotest.(check (list string)) "count >= 2" [ "(*, *)"; "(*, q)"; "(x, *)" ]
    (List.sort String.compare
       (List.map (fun (c, _) -> Cell.to_string schema c)
          (Q.iceberg (Q.make_index tree Agg.Count) ~threshold:2.0)))

let test_iceberg_range_nan () =
  let table = nan_table () in
  let schema = Table.schema table in
  let tree = T.of_table table in
  let idx = Q.make_index tree Agg.Sum in
  let enc i v = Schema.encode_value schema i v in
  let every_cell = [| Array.map (enc 0) [| "x"; "y"; "z" |]; Array.map (enc 1) [| "p"; "q"; "r" |] |] in
  let b_only = [| [||]; Array.map (enc 1) [| "q"; "r" |] |] in
  List.iter
    (fun (q, threshold, expected) ->
      List.iter
        (fun (name, strategy) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s at %g" name threshold)
            expected
            (List.sort String.compare
               (show_answers schema (Q.iceberg_range ~strategy tree idx q ~threshold))))
        [ ("filter", `Filter); ("mark", `Mark) ])
    [
      (every_cell, 5.0, [ "(z, r)=10" ]);
      (every_cell, neg_infinity, [ "(y, q)=1"; "(z, r)=10" ]);
      (every_cell, nan, []);
      (b_only, neg_infinity, [ "(*, r)=10" ]);
      (b_only, 0.5, [ "(*, r)=10" ]);
      (b_only, nan, []);
    ]

(* ---------- Against the materialized full cube on a bigger instance ---------- *)

let test_against_full_cube_bigger () =
  let spec = { Qc_data.Synthetic.default with rows = 2000; dims = 4; cardinality = 8; seed = 5 } in
  let table = Qc_data.Synthetic.generate spec in
  let tree = T.of_table table in
  let cube = Full_cube.compute table in
  (* every materialized cell answers correctly *)
  let checked = ref 0 in
  Full_cube.iter
    (fun cell truth ->
      incr checked;
      match point_opt tree cell with
      | Some a when Agg.approx_equal a truth -> ()
      | Some a -> Alcotest.failf "cell wrong: %a vs %a" Agg.pp a Agg.pp truth
      | None -> Alcotest.fail "cell missing")
    cube;
  Alcotest.(check bool) "covered many cells" true (!checked > 1000);
  (* spot-check emptiness: mutate existing cells out of range *)
  let rng = Qc_util.Rng.create 99 in
  for _ = 1 to 200 do
    let cell = Array.init 4 (fun _ -> 1 + Qc_util.Rng.int rng 8) in
    let truth = Table.cover_agg table cell in
    match point_opt tree cell with
    | None -> Alcotest.(check int) "truly empty" 0 truth.Agg.count
    | Some a -> Alcotest.(check Helpers.agg_testable) "truly present" truth a
  done

let prop_node_accesses_bounded =
  Helpers.qcheck_case ~count:80 ~name:"point queries touch at most path-length many nodes"
    Helpers.table_config (fun (dims, card, rows, seed) ->
      let rng = Qc_util.Rng.create seed in
      let table = Helpers.random_table rng ~dims ~card ~rows () in
      let tree = T.of_table table in
      let ok = ref true in
      Helpers.iter_all_cells ~dims ~card (fun cell ->
          let acc = Q.node_accesses tree cell in
          if acc < 1 || acc > T.n_nodes tree then ok := false;
          (* a base tuple's path has at most dims+1 nodes and cannot need
             hops beyond one per dimension *)
          if Cell.is_base cell && Option.is_some (point_opt tree cell) && acc > (2 * dims) + 1 then
            ok := false);
      !ok)

let test_locate_returns_class_ub () =
  let table = Helpers.sales_table () in
  let schema = Table.schema table in
  let tree = T.of_table table in
  (* (S2,*,f) lies in class C3 whose upper bound is (S2,P1,f). *)
  match Q.locate tree (Cell.parse schema [ "S2"; "*"; "f" ]) with
  | Some node ->
    Alcotest.(check string) "class ub" "(S2, P1, f)"
      (Cell.to_string schema (T.node_cell tree node))
  | None -> Alcotest.fail "locate failed"

let () =
  Alcotest.run "qc_query"
    [
      ( "paper examples",
        [
          Alcotest.test_case "Example 5 (point)" `Quick test_example5;
          Alcotest.test_case "Example 6 (range)" `Quick test_example6;
          Alcotest.test_case "locate = class upper bound" `Quick test_locate_returns_class_ub;
        ] );
      ( "properties",
        [
          prop_point_queries_exact;
          prop_range_equals_points;
          prop_iceberg_complete;
          prop_iceberg_range_strategies_agree;
          prop_node_accesses_bounded;
        ] );
      ( "iceberg",
        [
          Alcotest.test_case "NaN never qualifies" `Quick test_iceberg_nan;
          Alcotest.test_case "range strategies skip NaN" `Quick test_iceberg_range_nan;
        ] );
      ( "scale",
        [ Alcotest.test_case "against materialized cube" `Quick test_against_full_cube_bigger ] );
    ]
