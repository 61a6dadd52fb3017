open Qc_cube
module Jx = Qc_util.Jsonx

type query =
  | Point of Cell.t
  | Range of Query.range
  | Iceberg of { func : Agg.func; threshold : float }

type answer = Agg_answer of Agg.t | Cells_answer of (Cell.t * Agg.t) list

type outcome = (answer, Query.error) result

let answer_equal a b =
  match (a, b) with
  | Agg_answer x, Agg_answer y -> Agg.equal x y
  | Cells_answer xs, Cells_answer ys ->
    List.equal (fun (c1, a1) (c2, a2) -> Cell.equal c1 c2 && Agg.equal a1 a2) xs ys
  | (Agg_answer _ | Cells_answer _), _ -> false

let outcome_equal a b =
  match (a, b) with
  | Ok x, Ok y -> answer_equal x y
  | Error x, Error y -> Query.error_equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let func_equal (a : Agg.func) (b : Agg.func) =
  match (a, b) with
  | Agg.Count, Agg.Count | Agg.Sum, Agg.Sum | Agg.Avg, Agg.Avg | Agg.Min, Agg.Min
  | Agg.Max, Agg.Max ->
    true
  | (Agg.Count | Agg.Sum | Agg.Avg | Agg.Min | Agg.Max), _ -> false

let query_equal a b =
  match (a, b) with
  | Point c1, Point c2 -> Cell.equal c1 c2
  | Range q1, Range q2 ->
    Array.length q1 = Array.length q2
    && Array.for_all2 (fun d1 d2 -> Array.length d1 = Array.length d2 && Array.for_all2 ( = ) d1 d2) q1 q2
  | Iceberg { func = f1; threshold = t1 }, Iceberg { func = f2; threshold = t2 } ->
    func_equal f1 f2 && Int64.equal (Int64.bits_of_float t1) (Int64.bits_of_float t2)
  | (Point _ | Range _ | Iceberg _), _ -> false

let query_kind = function Point _ -> "point" | Range _ -> "range" | Iceberg _ -> "iceberg"

type request =
  | Query of query
  | Batch of query array
  | Stats
  | Describe

type stats = {
  sv_generation : int;
  sv_classes : int;
  sv_nodes : int;
  sv_clients : int;
  sv_served : int;
  sv_cache_hits : int;
  sv_cache_misses : int;
  sv_cache_evictions : int;
}

type response =
  | Answer of outcome
  | Answers of outcome array
  | Stats_reply of stats
  | Describe_reply of string
  | Overloaded of { pending : int; max_pending : int }

let request_equal a b =
  match (a, b) with
  | Query q1, Query q2 -> query_equal q1 q2
  | Batch b1, Batch b2 -> Array.length b1 = Array.length b2 && Array.for_all2 query_equal b1 b2
  | Stats, Stats | Describe, Describe -> true
  | (Query _ | Batch _ | Stats | Describe), _ -> false

let stats_equal (a : stats) (b : stats) =
  a.sv_generation = b.sv_generation && a.sv_classes = b.sv_classes && a.sv_nodes = b.sv_nodes
  && a.sv_clients = b.sv_clients && a.sv_served = b.sv_served
  && a.sv_cache_hits = b.sv_cache_hits && a.sv_cache_misses = b.sv_cache_misses
  && a.sv_cache_evictions = b.sv_cache_evictions

let response_equal a b =
  match (a, b) with
  | Answer o1, Answer o2 -> outcome_equal o1 o2
  | Answers a1, Answers a2 -> Array.length a1 = Array.length a2 && Array.for_all2 outcome_equal a1 a2
  | Stats_reply s1, Stats_reply s2 -> stats_equal s1 s2
  | Describe_reply d1, Describe_reply d2 -> String.equal d1 d2
  | Overloaded { pending = p1; max_pending = m1 }, Overloaded { pending = p2; max_pending = m2 } ->
    p1 = p2 && m1 = m2
  | (Answer _ | Answers _ | Stats_reply _ | Describe_reply _ | Overloaded _), _ -> false

(* ---------- text codec ---------- *)

exception Parse_error of string

let split_fields s = List.map String.trim (String.split_on_char ',' s)

let parse_point schema rest =
  match Cell.parse schema (split_fields rest) with
  | cell -> Ok (Point cell)
  | exception Invalid_argument msg -> Error (Query.Bad_query msg)

let parse_range schema rest =
  let fields = split_fields rest in
  let expected = Schema.n_dims schema in
  let got = List.length fields in
  if expected <> got then Error (Query.Arity_mismatch { expected; got })
  else
    match
      List.mapi
        (fun i field ->
          if String.equal field "*" then [||]
          else
            field
            |> String.split_on_char '|'
            |> List.map (fun v ->
                   let v = String.trim v in
                   match Qc_util.Dict.find (Schema.dict schema i) v with
                   | Some code -> code
                   | None ->
                     raise
                       (Parse_error
                          (Printf.sprintf "unknown value %S in dimension %s" v
                             (Schema.dim_name schema i))))
            |> Array.of_list)
        fields
    with
    | dims -> Ok (Range (Array.of_list dims))
    | exception Parse_error msg -> Error (Query.Bad_query msg)

let parse_iceberg rest =
  match String.split_on_char ' ' rest |> List.filter (fun s -> String.length s > 0) with
  | [ func; threshold ] -> (
    match (Agg.func_of_string func, float_of_string_opt threshold) with
    | f, Some th -> Ok (Iceberg { func = f; threshold = th })
    | _, None ->
      Error (Query.Bad_query (Printf.sprintf "bad iceberg threshold %S" threshold))
    | exception Invalid_argument _ ->
      Error (Query.Bad_query (Printf.sprintf "unknown aggregate function %S" func)))
  | _ -> Error (Query.Bad_query "iceberg expects: iceberg FUNC THRESHOLD")

let request_of_line schema line =
  let line = String.trim line in
  let kw, rest =
    match String.index_opt line ' ' with
    | Some i ->
      (String.sub line 0 i, String.trim (String.sub line (i + 1) (String.length line - i - 1)))
    | None -> (line, "")
  in
  let bare name req =
    if String.length rest = 0 then Ok req
    else Error (Query.Bad_query (Printf.sprintf "%s takes no arguments" name))
  in
  match kw with
  | "point" -> Result.map (fun q -> Query q) (parse_point schema rest)
  | "range" -> Result.map (fun q -> Query q) (parse_range schema rest)
  | "iceberg" -> Result.map (fun q -> Query q) (parse_iceberg rest)
  | "stats" -> bare "stats" Stats
  | "describe" -> bare "describe" Describe
  | _ ->
    Error
      (Query.Bad_query
         (Printf.sprintf "unknown request %S (expected point, range, iceberg, stats or describe)"
            kw))

(* The one shared error text: every frontend that numbers its input —
   batch files, [qct query]'s argv (line 1), the wire — renders parse
   failures as [Bad_query "line N: ..."] through this. *)
let at_line ?lineno schema result =
  match (result, lineno) with
  | Ok _, _ | Error _, None -> result
  | Error e, Some n ->
    (* [Bad_query]'s own rendering already says "bad query: "; unwrap it so
       the numbered text is not prefixed twice *)
    let detail =
      match e with
      | Query.Bad_query msg -> msg
      | e -> Query.error_to_string ~schema e
    in
    Error (Query.Bad_query (Printf.sprintf "line %d: %s" n detail))

let of_line ?lineno schema line = at_line ?lineno schema (request_of_line schema line)

let parse_query schema line =
  match request_of_line schema line with
  | Ok (Query q) -> Ok q
  | Ok (Stats | Describe) ->
    let kw = String.trim line in
    Error
      (Query.Bad_query
         (Printf.sprintf "%S is a protocol request, not a data query" kw))
  | Ok (Batch _) -> Error (Query.Bad_query "nested batch")  (* unreachable from of_line *)
  | Error _ as e -> e

let queries_of_lines schema text =
  let rec go lineno acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest ->
      let trimmed = String.trim line in
      if String.length trimmed = 0 || trimmed.[0] = '#' then go (lineno + 1) acc rest
      else (
        match at_line ~lineno schema (parse_query schema trimmed) with
        | Ok q -> go (lineno + 1) (q :: acc) rest
        | Error e -> Error e)
  in
  go 1 [] (String.split_on_char '\n' text)

let cell_field schema i code = if code = Cell.all then "*" else Schema.decode_value schema i code

let to_line schema req =
  let line = function
    | Point cell ->
      Printf.sprintf "point %s"
        (String.concat "," (Array.to_list (Array.mapi (cell_field schema) cell)))
    | Range dims ->
      let dim i vs =
        if Array.length vs = 0 then "*"
        else String.concat "|" (Array.to_list (Array.map (Schema.decode_value schema i) vs))
      in
      Printf.sprintf "range %s" (String.concat "," (Array.to_list (Array.mapi dim dims)))
    | Iceberg { func; threshold } ->
      (* the exact spelling: thresholds must survive [of_line ∘ to_line] *)
      Printf.sprintf "iceberg %s %s" (Agg.func_to_string func) (Jx.float_exact threshold)
  in
  match req with
  | Query q -> Some (line q)
  | Stats -> Some "stats"
  | Describe -> Some "describe"
  | Batch _ -> None

let render_query schema = function
  | Point cell -> Printf.sprintf "point %s" (Cell.to_string schema cell)
  | Range q ->
    let dim i vs =
      if Array.length vs = 0 then "*"
      else String.concat "|" (Array.to_list (Array.map (Schema.decode_value schema i) vs))
    in
    Printf.sprintf "range (%s)" (String.concat ", " (Array.to_list (Array.mapi dim q)))
  | Iceberg { func; threshold } ->
    Printf.sprintf "iceberg %s %g" (Agg.func_to_string func) threshold

(* ---------- JSON codec ---------- *)

let cell_to_json schema cell =
  Jx.List (Array.to_list (Array.mapi (fun i c -> Jx.String (cell_field schema i c)) cell))

let agg_to_json (a : Agg.t) =
  Jx.Obj
    [ ("count", Jx.Int a.Agg.count); ("sum", Jx.Float a.Agg.sum); ("min", Jx.Float a.Agg.min);
      ("max", Jx.Float a.Agg.max) ]

let error_to_json schema (e : Query.error) =
  let obj kind fields = Jx.Obj (("kind", Jx.String kind) :: fields) in
  match e with
  | Query.Arity_mismatch { expected; got } ->
    obj "arity-mismatch" [ ("expected", Jx.Int expected); ("got", Jx.Int got) ]
  | Query.Empty_cover cell -> obj "empty-cover" [ ("cell", cell_to_json schema cell) ]
  | Query.Unsupported { backend; operation } ->
    obj "unsupported" [ ("backend", Jx.String backend); ("operation", Jx.String operation) ]
  | Query.Bad_query msg -> obj "bad-query" [ ("message", Jx.String msg) ]

let query_to_json schema = function
  | Point cell -> Jx.Obj [ ("op", Jx.String "point"); ("cell", cell_to_json schema cell) ]
  | Range dims ->
    let dim i vs =
      if Array.length vs = 0 then Jx.String "*"
      else
        Jx.List
          (Array.to_list (Array.map (fun v -> Jx.String (Schema.decode_value schema i v)) vs))
    in
    Jx.Obj
      [ ("op", Jx.String "range");
        ("dims", Jx.List (Array.to_list (Array.mapi dim dims))) ]
  | Iceberg { func; threshold } ->
    Jx.Obj
      [ ("op", Jx.String "iceberg"); ("func", Jx.String (Agg.func_to_string func));
        ("threshold", Jx.Float threshold) ]

let request_to_json schema = function
  | Query q -> query_to_json schema q
  | Batch qs ->
    Jx.Obj
      [ ("op", Jx.String "batch");
        ("queries", Jx.List (Array.to_list (Array.map (query_to_json schema) qs))) ]
  | Stats -> Jx.Obj [ ("op", Jx.String "stats") ]
  | Describe -> Jx.Obj [ ("op", Jx.String "describe") ]

let stats_to_json s =
  Jx.Obj
    [ ("generation", Jx.Int s.sv_generation); ("classes", Jx.Int s.sv_classes);
      ("nodes", Jx.Int s.sv_nodes); ("clients", Jx.Int s.sv_clients);
      ("served", Jx.Int s.sv_served); ("cache_hits", Jx.Int s.sv_cache_hits);
      ("cache_misses", Jx.Int s.sv_cache_misses);
      ("cache_evictions", Jx.Int s.sv_cache_evictions) ]

let ok_fields fields = Jx.Obj (("status", Jx.String "ok") :: fields)

let outcome_fields schema = function
  | Ok (Agg_answer a) -> [ ("agg", agg_to_json a) ]
  | Ok (Cells_answer cs) ->
    [ ( "cells",
        Jx.List
          (List.map
             (fun (c, a) -> Jx.Obj [ ("cell", cell_to_json schema c); ("agg", agg_to_json a) ])
             cs) ) ]
  | Error e -> [ ("error", error_to_json schema e) ]

let response_to_json schema = function
  | Answer (Ok _ as o) -> ok_fields (outcome_fields schema o)
  | Answer (Error e) -> Jx.Obj [ ("status", Jx.String "error"); ("error", error_to_json schema e) ]
  | Answers os ->
    ok_fields
      [ ( "outcomes",
          Jx.List (Array.to_list (Array.map (fun o -> Jx.Obj (outcome_fields schema o)) os)) ) ]
  | Stats_reply s -> ok_fields [ ("stats", stats_to_json s) ]
  | Describe_reply d -> ok_fields [ ("describe", Jx.String d) ]
  | Overloaded { pending; max_pending } ->
    Jx.Obj
      [ ("status", Jx.String "overloaded"); ("pending", Jx.Int pending);
        ("max_pending", Jx.Int max_pending) ]

(* -- decoding -- *)

exception Decode of string

let want_string what = function Jx.String s -> s | _ -> raise (Decode (what ^ ": expected a string"))

let want_int what = function Jx.Int i -> i | _ -> raise (Decode (what ^ ": expected an integer"))

let want_float what = function
  | Jx.Float f -> f
  | Jx.Int i -> float_of_int i
  | _ -> raise (Decode (what ^ ": expected a number"))

let want_list what = function Jx.List l -> l | _ -> raise (Decode (what ^ ": expected an array"))

let field what obj name =
  match Jx.member name obj with
  | Some v -> v
  | None -> raise (Decode (Printf.sprintf "%s: missing field %S" what name))

(* Value-level decode shares the text grammar's error messages so a typo
   reads the same over JSON and over a query file. *)
let code_of_value schema i v =
  if String.equal v "*" then Cell.all
  else
    match Qc_util.Dict.find (Schema.dict schema i) v with
    | Some code -> code
    | None ->
      raise
        (Decode
           (Printf.sprintf "unknown value %S in dimension %s" v (Schema.dim_name schema i)))

let cell_of_json schema what j =
  let vs = List.map (want_string what) (want_list what j) in
  let expected = Schema.n_dims schema in
  let got = List.length vs in
  if expected <> got then raise (Decode (Printf.sprintf "%s: arity %d, schema has %d" what got expected))
  else Array.of_list (List.mapi (code_of_value schema) vs)

let agg_of_json what j =
  {
    Agg.count = want_int (what ^ ".count") (field what j "count");
    sum = want_float (what ^ ".sum") (field what j "sum");
    min = want_float (what ^ ".min") (field what j "min");
    max = want_float (what ^ ".max") (field what j "max");
  }

let error_of_json schema what j : Query.error =
  match want_string (what ^ ".kind") (field what j "kind") with
  | "arity-mismatch" ->
    Query.Arity_mismatch
      { expected = want_int (what ^ ".expected") (field what j "expected");
        got = want_int (what ^ ".got") (field what j "got") }
  | "empty-cover" -> Query.Empty_cover (cell_of_json schema (what ^ ".cell") (field what j "cell"))
  | "unsupported" ->
    Query.Unsupported
      { backend = want_string (what ^ ".backend") (field what j "backend");
        operation = want_string (what ^ ".operation") (field what j "operation") }
  | "bad-query" -> Query.Bad_query (want_string (what ^ ".message") (field what j "message"))
  | k -> raise (Decode (Printf.sprintf "%s: unknown error kind %S" what k))

let query_of_json schema j =
  match want_string "op" (field "request" j "op") with
  | "point" -> Point (cell_of_json schema "cell" (field "point" j "cell"))
  | "range" ->
    let dims = want_list "dims" (field "range" j "dims") in
    let expected = Schema.n_dims schema in
    let got = List.length dims in
    if expected <> got then
      raise (Decode (Printf.sprintf "dims: arity %d, schema has %d" got expected))
    else
      Range
        (Array.of_list
           (List.mapi
              (fun i d ->
                match d with
                | Jx.String "*" -> [||]
                | Jx.String v -> [| code_of_value schema i v |]
                | Jx.List vs ->
                  Array.of_list
                    (List.map (fun v -> code_of_value schema i (want_string "dims" v)) vs)
                | _ -> raise (Decode "dims: expected \"*\" or an array of values"))
              dims))
  | "iceberg" ->
    let func_name = want_string "func" (field "iceberg" j "func") in
    let func =
      match Agg.func_of_string func_name with
      | f -> f
      | exception Invalid_argument _ ->
        raise (Decode (Printf.sprintf "unknown aggregate function %S" func_name))
    in
    Iceberg { func; threshold = want_float "threshold" (field "iceberg" j "threshold") }
  | op -> raise (Decode (Printf.sprintf "unknown op %S" op))

let of_json schema j =
  match
    match want_string "op" (field "request" j "op") with
    | "batch" ->
      let qs = want_list "queries" (field "batch" j "queries") in
      Batch (Array.of_list (List.map (query_of_json schema) qs))
    | "stats" -> Stats
    | "describe" -> Describe
    | _ -> Query (query_of_json schema j)
  with
  | req -> Ok req
  | exception Decode msg -> Error (Query.Bad_query msg)

let outcome_of_json schema what j : outcome =
  match Jx.member "error" j with
  | Some e -> Error (error_of_json schema (what ^ ".error") e)
  | None -> (
    match Jx.member "agg" j with
    | Some a -> Ok (Agg_answer (agg_of_json (what ^ ".agg") a))
    | None ->
      let cells = want_list (what ^ ".cells") (field what j "cells") in
      Ok
        (Cells_answer
           (List.map
              (fun c ->
                ( cell_of_json schema (what ^ ".cell") (field what c "cell"),
                  agg_of_json (what ^ ".agg") (field what c "agg") ))
              cells)))

let stats_of_json what j =
  let i name = want_int (what ^ "." ^ name) (field what j name) in
  {
    sv_generation = i "generation";
    sv_classes = i "classes";
    sv_nodes = i "nodes";
    sv_clients = i "clients";
    sv_served = i "served";
    sv_cache_hits = i "cache_hits";
    sv_cache_misses = i "cache_misses";
    sv_cache_evictions = i "cache_evictions";
  }

let response_of_json schema j =
  match
    match want_string "status" (field "response" j "status") with
    | "overloaded" ->
      Overloaded
        { pending = want_int "pending" (field "response" j "pending");
          max_pending = want_int "max_pending" (field "response" j "max_pending") }
    | "error" -> Answer (Error (error_of_json schema "error" (field "response" j "error")))
    | "ok" -> (
      match Jx.member "outcomes" j with
      | Some (Jx.List os) ->
        Answers (Array.of_list (List.map (outcome_of_json schema "outcome") os))
      | Some _ -> raise (Decode "outcomes: expected an array")
      | None -> (
        match Jx.member "stats" j with
        | Some s -> Stats_reply (stats_of_json "stats" s)
        | None -> (
          match Jx.member "describe" j with
          | Some d -> Describe_reply (want_string "describe" d)
          | None -> Answer (outcome_of_json schema "response" j))))
    | s -> raise (Decode (Printf.sprintf "unknown status %S" s))
  with
  | resp -> Ok resp
  | exception Decode msg -> Error msg

let of_wire schema line =
  let trimmed = String.trim line in
  if String.length trimmed > 0 && trimmed.[0] = '{' then
    match Jx.parse trimmed with
    | Ok j -> of_json schema j
    | Error msg -> Error (Query.Bad_query (Printf.sprintf "bad JSON: %s" msg))
  else request_of_line schema trimmed
