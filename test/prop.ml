(* Shared infrastructure for the property-based differential suites.

   A test case is a fully materialized random OLAP instance: a schema of
   2-5 dimensions with zipf-skewed cardinalities, a list of encoded tuples
   drawn with the same skew (so shared prefixes and non-trivial quotient
   classes are common), and an iceberg threshold.  Everything is derived
   deterministically from one seed through [Qc_util.Rng], and the shrinker
   works by dropping tuples — a failing case minimizes to the smallest
   table that still exhibits the bug, with the schema held fixed. *)

open Qc_cube

type case = {
  seed : int;
  dims : int;
  cards : int array;  (* per-dimension cardinality *)
  min_support : int;  (* iceberg threshold; 1 = keep everything *)
  rows : (int array * float) list;  (* encoded tuples: codes in 1..card *)
}

(* Skewed draw on [1..n]: the inverse-power transform concentrates mass on
   the small codes, like the Zipf generators the benchmarks use. *)
let zipf rng n =
  let u = Qc_util.Rng.float rng 1.0 in
  let v = 1 + int_of_float (float_of_int n *. (u ** 2.5)) in
  if v > n then n else v

(* [n_rows] comes from QCheck so case sizes follow its distribution; all
   the actual content derives from [seed] alone.  Rows are built with an
   explicit loop: the evaluation order of [List.init] is unspecified and
   would make generation seed-irreproducible. *)
let make_case ~seed ~n_rows =
  let rng = Qc_util.Rng.create seed in
  let dims = 2 + Qc_util.Rng.int rng 4 in
  let cards = Array.init dims (fun _ -> 2 + Qc_util.Rng.int rng 5) in
  let min_support = if Qc_util.Rng.int rng 4 = 0 then 2 + Qc_util.Rng.int rng 2 else 1 in
  let rows = ref [] in
  for _ = 1 to n_rows do
    let cell = Array.make dims 0 in
    for i = 0 to dims - 1 do
      cell.(i) <- zipf rng cards.(i)
    done;
    let m = float_of_int (Qc_util.Rng.int rng 41 - 20) in
    rows := (cell, m) :: !rows
  done;
  { seed; dims; cards; min_support; rows = List.rev !rows }

let print_case c =
  let row (cell, m) =
    Printf.sprintf "(%s)=%.17g"
      (String.concat "," (Array.to_list (Array.map string_of_int cell)))
      m
  in
  Printf.sprintf "seed=%d dims=%d cards=[%s] min_support=%d rows=[%s]" c.seed c.dims
    (String.concat ";" (Array.to_list (Array.map string_of_int c.cards)))
    c.min_support
    (String.concat " " (List.map row c.rows))

let gen_case =
  QCheck.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_rows = int_range 0 60 in
    return (make_case ~seed ~n_rows))

(* Shrink by dropping tuples only; dimensions and cardinalities stay put so
   the shrunk counterexample still type-checks against the same schema. *)
let shrink_case c = QCheck.Iter.map (fun rows -> { c with rows }) (QCheck.Shrink.list c.rows)

let arb_case = QCheck.make ~print:print_case ~shrink:shrink_case gen_case

(* The same cases with measures drawn as doubles in [-20, 20) from the
   seed.  Integer measures sum exactly in any order; these do not, so an
   aggregate folded in another order than the rows' shows in the last bits. *)
let with_float_measures c =
  let rng = Qc_util.Rng.create (c.seed lxor 0xF107) in
  { c with rows = List.map (fun (cell, _) -> (cell, Qc_util.Rng.float rng 40.0 -. 20.0)) c.rows }

let arb_float_case =
  QCheck.make ~print:print_case ~shrink:shrink_case (QCheck.Gen.map with_float_measures gen_case)

(* Every dimension value is pre-registered so queries may mention values no
   tuple carries (they must answer None, not crash). *)
let schema_of c =
  let s = Schema.create (List.init c.dims (fun i -> Printf.sprintf "D%d" i)) in
  Array.iteri
    (fun i card ->
      for v = 1 to card do
        ignore (Schema.encode_value s i (Printf.sprintf "d%dv%d" i v))
      done)
    c.cards;
  s

let table_of ?schema c =
  let s = match schema with Some s -> s | None -> schema_of c in
  let t = Table.create s in
  List.iter (fun (cell, m) -> Table.add_encoded t cell m) c.rows;
  t

(* The number of cells in the full cube space (ALL included per dim). *)
let space_size c = Array.fold_left (fun acc card -> acc * (card + 1)) 1 c.cards

(* Visit query cells: the whole space when small enough, otherwise a
   deterministic random sample of [sample] cells. *)
let iter_cells ?(sample = 2000) c f =
  if space_size c <= sample then begin
    let cell = Array.make c.dims 0 in
    let rec go i =
      if i >= c.dims then f cell
      else
        for v = 0 to c.cards.(i) do
          cell.(i) <- v;
          go (i + 1);
          cell.(i) <- 0
        done
    in
    go 0
  end
  else begin
    let rng = Qc_util.Rng.create (c.seed lxor 0x5EED) in
    let cell = Array.make c.dims 0 in
    for _ = 1 to sample do
      for i = 0 to c.dims - 1 do
        cell.(i) <-
          (if Qc_util.Rng.int rng 10 < 4 then Cell.all else 1 + Qc_util.Rng.int rng c.cards.(i))
      done;
      f cell
    done
  end

(* Random range queries over the case's value space: per dimension either
   unconstrained (empty array) or a small set of distinct values. *)
let random_ranges c n =
  let rng = Qc_util.Rng.create (c.seed lxor 0x7A4E) in
  let out = ref [] in
  for _ = 1 to n do
    let q = Array.make c.dims [||] in
    for i = 0 to c.dims - 1 do
      if not (Qc_util.Rng.bool rng) then begin
        let k = 1 + Qc_util.Rng.int rng (min 3 c.cards.(i)) in
        let vals = Array.init c.cards.(i) (fun v -> v + 1) in
        Qc_util.Rng.shuffle rng vals;
        q.(i) <- Array.sub vals 0 k
      end
    done;
    out := q :: !out
  done;
  List.rev !out

(* CI runs the suite twice: once with the default seed and once with a seed
   derived from the run number, so the corpus differs run to run while any
   failure stays reproducible from the printed seed. *)
let ci_seed () =
  match Sys.getenv_opt "QC_PROP_SEED" with
  | Some s -> (try int_of_string (String.trim s) with _ -> 42)
  | None -> 42

let qcheck_case ?(count = 200) ~name arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| ci_seed () |])
    (QCheck.Test.make ~count ~name arb prop)

(* Full invariant audit as a QCheck predicate: every generated or
   maintained tree must pass [Check.run] (structure, packed columns, bytes,
   round trips; with [~base], also the class DFS and sampled oracle
   queries).  Violations print their labels so a shrunk counterexample
   names the broken invariant, not just "false". *)
let check_clean ?deep ?base tree =
  let r = Qc_core.Check.run ?deep ?base tree in
  if not (Qc_core.Check.ok r) then
    List.iter
      (fun v ->
        Printf.eprintf "check violation [%s]\n%!" (Qc_core.Check.violation_label v))
      r.Qc_core.Check.violations;
  Qc_core.Check.ok r
