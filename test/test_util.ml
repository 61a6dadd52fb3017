open Qc_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done;
  for _ = 1 to 10_000 do
    let f = Rng.float rng 3.5 in
    if f < 0.0 || f >= 3.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.int64 a) in
  let ys = List.init 32 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_dict_roundtrip () =
  let d = Dict.create ~name:"city" () in
  let c1 = Dict.encode d "tokyo" in
  let c2 = Dict.encode d "osaka" in
  let c1' = Dict.encode d "tokyo" in
  Alcotest.(check int) "stable code" c1 c1';
  Alcotest.(check bool) "distinct codes" true (c1 <> c2);
  Alcotest.(check string) "decode" "tokyo" (Dict.decode d c1);
  Alcotest.(check string) "decode" "osaka" (Dict.decode d c2);
  Alcotest.(check int) "size" 2 (Dict.size d);
  Alcotest.(check (option int)) "find known" (Some c2) (Dict.find d "osaka");
  Alcotest.(check (option int)) "find unknown" None (Dict.find d "kyoto")

let test_dict_code_zero_reserved () =
  let d = Dict.create () in
  let c = Dict.encode d "x" in
  Alcotest.(check bool) "codes start at 1" true (c >= 1);
  Alcotest.check_raises "decode 0 is invalid"
    (Invalid_argument "Dict.decode: code 0 out of range") (fun () ->
      ignore (Dict.decode d 0))

let test_dict_growth () =
  let d = Dict.create () in
  for i = 1 to 1000 do
    ignore (Dict.encode d (string_of_int i))
  done;
  Alcotest.(check int) "1000 values" 1000 (Dict.size d);
  Alcotest.(check string) "decode deep" "777" (Dict.decode d (Dict.encode d "777"))

let test_size_model () =
  Alcotest.(check int) "cells cost" ((3 * 4) + 8) (Size.bytes_of_cells ~dims:3 ~cells:1);
  Alcotest.(check int) "scaling" (100 * ((6 * 4) + 8)) (Size.bytes_of_cells ~dims:6 ~cells:100);
  Alcotest.(check bool) "mb" true (Float.abs (Size.mb (1024 * 1024) -. 1.0) < 1e-9)

let test_timer () =
  let x, dt = Qc_util.Timer.time (fun () -> 21 * 2) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0);
  let m = Qc_util.Timer.repeat_median 3 (fun () -> ()) in
  Alcotest.(check bool) "median non-negative" true (m >= 0.0);
  let samples = Qc_util.Timer.repeat 5 (fun () -> ()) in
  Alcotest.(check int) "repeat returns k samples" 5 (Array.length samples)

let test_timer_stats () =
  let open Qc_util.Timer in
  Alcotest.(check (float 1e-9)) "mean" 2.0 (mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "stddev constant" 0.0 (stddev [| 4.0; 4.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.0) (stddev [| 1.0; 3.0; 5.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (median [| 3.0; 1.0; 2.0 |]);
  (* Float.compare makes the sort total: NaN sorts first, not anywhere *)
  Alcotest.(check (float 1e-9)) "median with nan" 2.0 (median [| 2.0; nan; 3.0 |]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Timer.mean: empty sample array")
    (fun () -> ignore (mean [||]))

let test_tablefmt () =
  let t = Tablefmt.create ~title:"x" ~columns:[ "a"; "b" ] in
  Tablefmt.add_row t [ "1"; "2" ];
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity mismatch with header")
    (fun () -> Tablefmt.add_row t [ "1" ]);
  Alcotest.(check string) "ratio" "12.50%" (Tablefmt.cell_ratio 0.125);
  Alcotest.(check string) "int float" "3" (Tablefmt.cell_f 3.0);
  Alcotest.(check string) "frac float" "3.1400" (Tablefmt.cell_f 3.14);
  Alcotest.(check string) "csv" "a,b\n1,2\n" (Tablefmt.to_csv t);
  let q = Tablefmt.create ~title:"quoted" ~columns:[ "x" ] in
  Tablefmt.add_row q [ "v1,v2" ];
  Alcotest.(check string) "csv quoting" "x\n\"v1,v2\"\n" (Tablefmt.to_csv q)

(* ---------- float spelling ---------- *)

(* The Printf rule [Jsonx.float_exact] replaces, kept here as the oracle:
   [%g] when it parses back to the same float, else [%.17g]. *)
let oracle_float_exact f =
  let short = Printf.sprintf "%g" f in
  if Float.equal (float_of_string short) f then short else Printf.sprintf "%.17g" f

let test_float_spelling () =
  let checked = ref 0 and mismatches = ref [] in
  let check f =
    incr checked;
    let want = if Float.is_finite f then oracle_float_exact f else "null" in
    let json = Jsonx.to_string (Jsonx.Float f) in
    if (not (String.equal (Jsonx.float_exact f) (oracle_float_exact f)))
       || not (String.equal json want)
    then mismatches := Printf.sprintf "%Lx: want %s, got %s / %s" (Int64.bits_of_float f)
        want (Jsonx.float_exact f) json :: !mismatches
  in
  let check_signed f =
    check f;
    check (Float.neg f)
  in
  let with_ulps f =
    check_signed f;
    check_signed (Float.succ f);
    check_signed (Float.pred f)
  in
  let rng = Rng.create 0xF10A7 in
  (* random 64-bit patterns: every exponent, NaN payloads included *)
  for _ = 1 to 300_000 do
    check (Int64.float_of_bits (Rng.int64 rng))
  done;
  (* decimals of at most 6 significant digits, x 10^k, and their neighbours:
     exactly the floats %g can spell *)
  for _ = 1 to 80_000 do
    let digits = 1 + Rng.int rng 6 in
    let m = Rng.int rng (int_of_float (10.0 ** float_of_int digits)) in
    let k = Rng.int rng 81 - 40 in
    with_ulps (float_of_string (Printf.sprintf "%de%d" m k))
  done;
  (* integers, small and large, and powers of ten *)
  for i = 0 to 20_000 do
    with_ulps (float_of_int i)
  done;
  for _ = 1 to 20_000 do
    with_ulps (float_of_int (Rng.int rng (1 lsl 60)))
  done;
  for k = -323 to 308 do
    with_ulps (float_of_string (Printf.sprintf "1e%d" k))
  done;
  (* subnormals, the boundaries and the non-finite values *)
  for _ = 1 to 20_000 do
    check_signed (Int64.float_of_bits (Int64.of_int (1 + Rng.int rng ((1 lsl 52) - 1))))
  done;
  List.iter with_ulps [ 0.0; Float.min_float; Float.max_float; Float.epsilon ];
  List.iter check_signed [ Float.infinity; Float.nan ];
  Alcotest.(check bool) "values checked" true (!checked > 1_000_000);
  Alcotest.(check (list string)) "spelled as the Printf rule" [] (List.rev !mismatches)

let () =
  Alcotest.run "qc_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "dict",
        [
          Alcotest.test_case "roundtrip" `Quick test_dict_roundtrip;
          Alcotest.test_case "zero reserved" `Quick test_dict_code_zero_reserved;
          Alcotest.test_case "growth" `Quick test_dict_growth;
        ] );
      ( "size",
        [ Alcotest.test_case "cost model" `Quick test_size_model ] );
      ( "timer",
        [
          Alcotest.test_case "timing" `Quick test_timer;
          Alcotest.test_case "sample statistics" `Quick test_timer_stats;
        ] );
      ( "tablefmt",
        [ Alcotest.test_case "format" `Quick test_tablefmt ] );
      ( "jsonx",
        [ Alcotest.test_case "float spelling" `Quick test_float_spelling ] );
    ]
