(* The unified Engine backend API and the parallel batch executor.

   Two layers: unit tests over the paper's running example (typed errors,
   query-file parsing, cross-backend agreement, explain/node-access
   consistency), and property-based differential tests — every random
   instance must get bit-identical answers from the tree and packed
   backends, agreeing answers from the Dwarf baseline, and bit-identical
   batch results whatever the domain count or chunk scheduling order. *)

open Qc_cube
module E = Qc_core.Engine
module T = Qc_core.Qc_tree
module P = Qc_core.Packed
module D = Qc_dwarf.Dwarf

(* ---------- the paper's running example ---------- *)

let sales_table () =
  let s = Schema.create [ "Store"; "Product"; "Season" ] in
  let t = Table.create s in
  List.iter
    (fun (r, m) -> Table.add_row t r m)
    [
      ([ "S1"; "P1"; "s" ], 6.0); ([ "S1"; "P2"; "s" ], 12.0); ([ "S2"; "P1"; "f" ], 9.0);
    ];
  t

let sales () =
  let table = sales_table () in
  let tree = T.of_table table in
  (table, tree, P.of_tree tree, D.build table)

let cell schema spec = Cell.parse schema (String.split_on_char ',' spec)

let agg = Alcotest.testable Agg.pp Agg.equal

let error_t = Alcotest.testable (fun ppf e -> Fmt.string ppf (E.error_to_string e)) E.error_equal

let result_t = Alcotest.(result agg error_t)

(* every cell of the 3x3x3 running-example space, ALL included *)
let all_cells schema f =
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          List.iter
            (fun se -> f (cell schema (String.concat "," [ s; p; se ])))
            [ "s"; "f"; "*" ])
        [ "P1"; "P2"; "*" ])
    [ "S1"; "S2"; "*" ]

let test_backend_agreement () =
  let _, tree, packed, dwarf = sales () in
  let schema = T.schema tree in
  all_cells schema (fun c ->
      let t_ans = E.Tree_backend.point tree c in
      Alcotest.check result_t "packed = tree" t_ans (E.Packed_backend.point packed c);
      Alcotest.check result_t "dwarf = tree" t_ans (D.Backend.point dwarf c);
      Alcotest.(check (result int error_t))
        "node accesses: packed = tree"
        (E.Tree_backend.node_accesses tree c)
        (E.Packed_backend.node_accesses packed c))

let test_typed_errors () =
  let _, tree, packed, dwarf = sales () in
  let schema = T.schema tree in
  let short = [| 0; 0 |] in
  let arity = Error (E.Arity_mismatch { expected = 3; got = 2 }) in
  Alcotest.check result_t "tree arity" arity (E.Tree_backend.point tree short);
  Alcotest.check result_t "packed arity" arity (E.Packed_backend.point packed short);
  Alcotest.check result_t "dwarf arity" arity (D.Backend.point dwarf short);
  let absent = cell schema "S2,P2,*" in
  Alcotest.check result_t "empty cover is a typed miss"
    (Error (E.Empty_cover absent))
    (E.Tree_backend.point tree absent);
  (match D.Backend.iceberg dwarf Agg.Sum ~threshold:10.0 with
  | Error (E.Unsupported { backend = "dwarf"; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (E.error_to_string e)
  | Ok _ -> Alcotest.fail "dwarf iceberg should be Unsupported");
  (* the error renders with decoded values when a schema is at hand *)
  Alcotest.(check bool)
    "error message decodes the cell" true
    (let msg = E.error_to_string ~schema (E.Empty_cover absent) in
     let contains sub s =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains "S2" msg)

let test_explain_consistency () =
  let _, tree, packed, dwarf = sales () in
  let schema = T.schema tree in
  all_cells schema (fun c ->
      let check_backend (type a) (module B : E.BACKEND with type t = a) (b : a) =
        match (B.explain b c, B.node_accesses b c) with
        | Ok e, Ok n ->
          Alcotest.(check int)
            (Printf.sprintf "%s explain agrees with node_accesses at %s" B.name
               (Cell.to_string schema c))
            n (E.nodes_touched e)
        | Error _, Error _ -> ()
        | _ -> Alcotest.failf "%s: explain and node_accesses disagree on failure" B.name
      in
      check_backend (module E.Tree_backend) tree;
      check_backend (module E.Packed_backend) packed;
      check_backend (module D.Backend) dwarf)

let test_parse_queries () =
  let _, tree, _, _ = sales () in
  let schema = T.schema tree in
  let text = "# header comment\npoint S1,P2,*\n\nrange *,P1|P2,f\niceberg sum 10\n" in
  (match E.parse_queries schema text with
  | Error e -> Alcotest.failf "parse failed: %s" (E.error_to_string e)
  | Ok qs ->
    Alcotest.(check int) "three queries" 3 (Array.length qs);
    (match qs.(0) with
    | E.Point c -> Alcotest.(check bool) "point cell" true (Cell.equal c (cell schema "S1,P2,*"))
    | _ -> Alcotest.fail "first query is a point");
    (match qs.(1) with
    | E.Range q ->
      Alcotest.(check int) "unconstrained dim" 0 (Array.length q.(0));
      Alcotest.(check int) "two products" 2 (Array.length q.(1))
    | _ -> Alcotest.fail "second query is a range");
    match qs.(2) with
    | E.Iceberg { func = Agg.Sum; threshold } ->
      Alcotest.(check (float 0.0)) "threshold" 10.0 threshold
    | _ -> Alcotest.fail "third query is an iceberg");
  (* the first bad line fails the whole batch, naming its line number *)
  match E.parse_queries schema "point S1,P1,*\nfrobnicate 1\n" with
  | Ok _ -> Alcotest.fail "accepted a malformed line"
  | Error (E.Bad_query msg) ->
    Alcotest.(check bool) "names the line" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")
  | Error e -> Alcotest.failf "wrong error kind: %s" (E.error_to_string e)

let sales_queries schema =
  [|
    E.Point (cell schema "S1,P2,*");
    E.Point (cell schema "*,*,*");
    E.Point (cell schema "S2,P2,*");
    E.Range
      [|
        [||];
        [| Option.get (Qc_util.Dict.find (Schema.dict schema 1) "P1") |];
        [||];
      |];
    E.Iceberg { func = Agg.Sum; threshold = 10.0 };
  |]

let test_run_batch_sequential_equivalence () =
  let _, tree, packed, _ = sales () in
  let schema = T.schema tree in
  let queries = sales_queries schema in
  let b1 = E.run_batch ~jobs:1 ~node_accesses:true (module E.Packed_backend) packed queries in
  let b4 = E.run_batch ~jobs:4 ~node_accesses:true (module E.Packed_backend) packed queries in
  Alcotest.(check int) "one slot per query" (Array.length queries) (Array.length b1.E.outcomes);
  Array.iteri
    (fun i o1 ->
      Alcotest.(check bool)
        (Printf.sprintf "outcome %d identical across jobs" i)
        true
        (E.outcome_equal o1 b4.E.outcomes.(i)))
    b1.E.outcomes;
  (match (b1.E.accesses, b4.E.accesses) with
  | Some a1, Some a4 -> Alcotest.(check (array int)) "accesses identical" a1 a4
  | _ -> Alcotest.fail "node accesses were requested");
  (* slot 0 answers the S1,P2 class; slot 2 is the typed empty-cover miss *)
  (match b1.E.outcomes.(0) with
  | Ok (E.Agg_answer a) -> Alcotest.(check (float 0.0)) "sum" 12.0 a.Agg.sum
  | _ -> Alcotest.fail "first outcome is an aggregate");
  match b1.E.outcomes.(2) with
  | Error (E.Empty_cover _) -> ()
  | _ -> Alcotest.fail "third outcome is an empty cover"

let test_run_batch_chunk_order () =
  let _, tree, packed, _ = sales () in
  let schema = T.schema tree in
  let queries = sales_queries schema in
  let b = E.run_batch ~jobs:2 (module E.Packed_backend) packed queries in
  let rev = E.run_batch ~jobs:2 ~chunk_order:[| 1; 0 |] (module E.Packed_backend) packed queries in
  Array.iteri
    (fun i o ->
      Alcotest.(check bool) "chunk order cannot leak into results" true
        (E.outcome_equal o rev.E.outcomes.(i)))
    b.E.outcomes;
  Alcotest.check_raises "chunk_order must be a permutation"
    (Invalid_argument "Engine.run_batch: chunk_order must be a permutation")
    (fun () ->
      ignore (E.run_batch ~jobs:2 ~chunk_order:[| 0; 0 |] (module E.Packed_backend) packed queries))

(* ---------- property-based differential tests ---------- *)

let build c =
  let table = Prop.table_of c in
  let tree = T.of_table table in
  (table, tree, P.of_tree tree, D.build table)

let outcome_approx a b =
  match (a, b) with
  | Ok x, Ok y -> Agg.approx_equal x y
  | Error e1, Error e2 -> E.error_equal e1 e2
  | _ -> false

let outcome_exact a b =
  match (a, b) with
  | Ok x, Ok y -> Agg.equal x y
  | Error e1, Error e2 -> E.error_equal e1 e2
  | _ -> false

(* every backend answers every point query of the space identically: the
   packed form bit-exactly (same stored aggregate), the Dwarf baseline up
   to float associativity (it merges covers in a different order) *)
let prop_point_backend_differential c =
  let _, tree, packed, dwarf = build c in
  let ok = ref true in
  Prop.iter_cells c (fun cell ->
      let t = E.Tree_backend.point tree cell in
      if not (outcome_exact t (E.Packed_backend.point packed cell)) then ok := false;
      if not (outcome_approx t (D.Backend.point dwarf cell)) then ok := false;
      (match (E.Tree_backend.node_accesses tree cell, E.Packed_backend.node_accesses packed cell)
       with
      | Ok a, Ok b when a = b -> ()
      | _ -> ok := false);
      (* the dwarf access count is the explain path length, like the
         others — except over an empty cube, where there is no root node to
         touch and the explanation is a bare level-0 miss *)
      match (D.Backend.explain dwarf cell, D.Backend.node_accesses dwarf cell) with
      | Ok e, Ok 0 -> if e.E.x_steps <> [] || not (Result.is_error (D.Backend.point dwarf cell)) then ok := false
      | Ok e, Ok n -> if E.nodes_touched e <> n then ok := false
      | _ -> ok := false);
  !ok

let canon l = List.sort (fun (c1, _) (c2, _) -> Cell.compare_dict c1 c2) l

let cells_equal ~exact xs ys =
  let eq = if exact then Agg.equal else fun a b -> Agg.approx_equal a b in
  List.length xs = List.length ys
  && List.for_all2 (fun (c1, a1) (c2, a2) -> Cell.equal c1 c2 && eq a1 a2) xs ys

(* range queries through the Engine agree across all three backends *)
let prop_range_backend_differential c =
  let _, tree, packed, dwarf = build c in
  List.for_all
    (fun q ->
      match (E.Tree_backend.range tree q, E.Packed_backend.range packed q, D.Backend.range dwarf q)
      with
      | Ok t, Ok p, Ok d ->
        let t = canon t in
        cells_equal ~exact:true t (canon p) && cells_equal ~exact:false t (canon d)
      | _ -> false)
    (Prop.random_ranges c 8)

let funcs = [ Agg.Count; Agg.Sum; Agg.Avg; Agg.Min; Agg.Max ]

(* Every threshold that can split a function's class values: both
   infinities, NaN (which nothing meets), each distinct value (its ties
   must be included) and the midpoints between neighbours. *)
let iceberg_thresholds tree func =
  let values = ref [] in
  T.iter_classes (fun _ _ a -> values := Agg.value func a :: !values) tree;
  let vs = List.sort_uniq Float.compare !values in
  let rec mids = function a :: (b :: _ as rest) -> ((a +. b) /. 2.0) :: mids rest | _ -> [] in
  (neg_infinity :: infinity :: nan :: vs) @ mids vs

(* iceberg through the Engine: the packed image's index returns exactly the
   canonically-sorted class list a full scan of the mutable tree does, for
   every function and threshold.  The first question per function builds
   the index; every later one, including a repeat, reuses it. *)
let prop_iceberg_backend_differential c =
  let _, tree, packed, _ = build c in
  List.for_all
    (fun func ->
      List.for_all
        (fun threshold ->
          match
            ( E.Tree_backend.iceberg tree func ~threshold,
              E.Packed_backend.iceberg packed func ~threshold,
              E.Packed_backend.iceberg packed func ~threshold )
          with
          | Ok t, Ok p, Ok again ->
            cells_equal ~exact:true t p && cells_equal ~exact:true p again
            && List.for_all (fun (_, a) -> Agg.value func a >= threshold) p
          | _ -> false)
        (iceberg_thresholds tree func))
    funcs

(* two domains racing on a fresh image's first iceberg per function both
   get the list a full scan of the mutable tree gives *)
let prop_iceberg_index_race c =
  let _, tree, packed, _ = build c in
  let ready = Atomic.make 0 in
  let ask () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.map (fun func -> E.Packed_backend.iceberg packed func ~threshold:neg_infinity) funcs
  in
  let other = Domain.spawn ask in
  let mine = ask () in
  let theirs = Domain.join other in
  List.for_all2
    (fun func (m, t) ->
      match (E.Tree_backend.iceberg tree func ~threshold:neg_infinity, m, t) with
      | Ok want, Ok m, Ok t -> cells_equal ~exact:true want m && cells_equal ~exact:true m t
      | _ -> false)
    funcs (List.combine mine theirs)

(* a class whose value is NaN never qualifies: the running example plus a
   NaN measure, whose classes have a NaN SUM/AVG/MIN/MAX but a COUNT *)
let test_iceberg_nan_values () =
  let table = sales_table () in
  Table.add_row table [ "S2"; "P2"; "f" ] nan;
  let tree = T.of_table table in
  let packed = P.of_tree tree in
  let cells func threshold =
    match (E.Tree_backend.iceberg tree func ~threshold, E.Packed_backend.iceberg packed func ~threshold) with
    | Ok want, Ok got ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s >= %g: packed = tree" (Agg.func_to_string func) threshold)
        (List.map (fun (c, _) -> Cell.to_string (T.schema tree) c) want)
        (List.map (fun (c, _) -> Cell.to_string (T.schema tree) c) got);
      List.iter (fun (_, a) -> Alcotest.(check bool) "no NaN answer" false (Float.is_nan (Agg.value func a))) got;
      List.length got
    | _ -> Alcotest.fail "iceberg failed"
  in
  List.iter (fun func -> List.iter (fun th -> ignore (cells func th)) [ neg_infinity; 0.0; nan ]) funcs;
  Alcotest.(check bool) "NaN sums drop classes COUNT keeps" true
    (cells Agg.Sum neg_infinity < cells Agg.Count neg_infinity);
  Alcotest.(check int) "nothing meets a NaN threshold" 0 (cells Agg.Count nan)

(* a mixed random batch answers bit-identically whatever the domain count
   or the order chunks are spawned in *)
let prop_batch_determinism c =
  let _, _, packed, _ = build c in
  let queries =
    let points = ref [] in
    Prop.iter_cells ~sample:40 c (fun cell -> points := E.Point (Cell.copy cell) :: !points);
    let ranges = List.map (fun q -> E.Range q) (Prop.random_ranges c 4) in
    let iceberg = [ E.Iceberg { func = Agg.Count; threshold = float_of_int c.Prop.min_support } ] in
    Array.of_list (List.rev_append !points (ranges @ iceberg))
  in
  let b1 = E.run_batch ~jobs:1 ~node_accesses:true (module E.Packed_backend) packed queries in
  let b4 = E.run_batch ~jobs:4 ~node_accesses:true (module E.Packed_backend) packed queries in
  let n = min 4 (Array.length queries) in
  let order = Array.init n (fun i -> n - 1 - i) in
  let brev =
    E.run_batch ~jobs:n ~node_accesses:true ~chunk_order:order (module E.Packed_backend) packed
      queries
  in
  let same a b =
    Array.length a.E.outcomes = Array.length b.E.outcomes
    && Array.for_all2 E.outcome_equal a.E.outcomes b.E.outcomes
    && a.E.accesses = b.E.accesses
  in
  same b1 b4 && same b1 brev

(* per-domain metric deltas absorbed after the join reproduce the exact
   sequential counter totals *)
let prop_batch_metrics_parity c =
  let _, _, packed, _ = build c in
  let queries =
    let points = ref [] in
    Prop.iter_cells ~sample:30 c (fun cell -> points := E.Point (Cell.copy cell) :: !points);
    Array.of_list !points
  in
  Qc_util.Metrics.set_enabled true;
  let snap jobs =
    Qc_util.Metrics.reset ();
    ignore (E.run_batch ~jobs (module E.Packed_backend) packed queries);
    (Qc_util.Metrics.snapshot ()).Qc_util.Metrics.counters
  in
  let seq = snap 1 and par = snap 4 in
  Qc_util.Metrics.set_enabled false;
  seq = par

let () =
  Alcotest.run "engine"
    [
      ( "unit",
        [
          Alcotest.test_case "backends agree on the running example" `Quick
            test_backend_agreement;
          Alcotest.test_case "typed errors" `Quick test_typed_errors;
          Alcotest.test_case "explain agrees with node_accesses" `Quick
            test_explain_consistency;
          Alcotest.test_case "query-file parsing" `Quick test_parse_queries;
          Alcotest.test_case "run_batch: jobs do not change results" `Quick
            test_run_batch_sequential_equivalence;
          Alcotest.test_case "run_batch: chunk order is inert" `Quick
            test_run_batch_chunk_order;
          Alcotest.test_case "iceberg: NaN class values never qualify" `Quick
            test_iceberg_nan_values;
        ] );
      ( "property",
        [
          Prop.qcheck_case ~count:150 ~name:"point queries agree across all three backends"
            Prop.arb_case prop_point_backend_differential;
          Prop.qcheck_case ~count:100 ~name:"range queries agree across all three backends"
            Prop.arb_case prop_range_backend_differential;
          Prop.qcheck_case ~count:100 ~name:"iceberg agrees between tree and packed"
            Prop.arb_case prop_iceberg_backend_differential;
          Prop.qcheck_case ~count:40 ~name:"racing first icebergs agree"
            Prop.arb_case prop_iceberg_index_race;
          Prop.qcheck_case ~count:60 ~name:"batch results are independent of jobs and schedule"
            Prop.arb_case prop_batch_determinism;
          Prop.qcheck_case ~count:40 ~name:"parallel metric totals equal sequential totals"
            Prop.arb_case prop_batch_metrics_parity;
        ] );
    ]
