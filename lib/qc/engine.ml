open Qc_cube
module Metrics = Qc_util.Metrics
module Trace = Qc_util.Trace
module Clock = Qc_util.Clock

type error = Query.error =
  | Arity_mismatch of { expected : int; got : int }
  | Empty_cover of Cell.t
  | Unsupported of { backend : string; operation : string }
  | Bad_query of string

let error_equal = Query.error_equal

let error_to_string = Query.error_to_string

(* ---------- backend-neutral EXPLAIN ----------

   [Query.explain] returns live tree nodes and [Query.explain_packed]
   returns packed node ids; the engine flattens both to cells so callers
   see one shape whatever the physical representation. *)

type explain_step = {
  step_kind : Query.step_kind;
  step_dim : int;
  step_label : int;
  step_cell : Cell.t;
}

type explanation = {
  x_cell : Cell.t;
  x_steps : explain_step list;
  x_outcome : Query.outcome;
  x_answer : (Cell.t * Agg.t) option;
}

let nodes_touched e = 1 + List.length e.x_steps

let pp_explanation schema ppf e =
  let outcome_str =
    match e.x_outcome with
    | Query.Hit -> "HIT"
    | Query.Miss_no_route i ->
      Printf.sprintf "MISS (no route on dimension %s)" (Schema.dim_name schema i)
    | Query.Miss_no_class -> "MISS (no class below the reached prefix)"
    | Query.Miss_not_dominating -> "MISS (reached bound disagrees with the query cell)"
  in
  Format.fprintf ppf "point %s: %s, %d nodes touched@." (Cell.to_string schema e.x_cell)
    outcome_str (nodes_touched e);
  Format.fprintf ppf "  root@.";
  List.iter
    (fun { step_kind; step_dim; step_label; step_cell } ->
      Format.fprintf ppf "  %-7s %s=%s -> %s@."
        (match step_kind with
        | Query.Tree_edge -> "edge"
        | Query.Link -> "link"
        | Query.Last_dim_hop -> "hop"
        | Query.Descend -> "descend")
        (Schema.dim_name schema step_dim)
        (Schema.decode_value schema step_dim step_label)
        (Cell.to_string schema step_cell))
    e.x_steps;
  match e.x_answer with
  | Some (cell, agg) ->
    Format.fprintf ppf "  = class %s %a@." (Cell.to_string schema cell) Agg.pp agg
  | None -> ()

(* ---------- the backend seam ---------- *)

module type BACKEND = sig
  type t

  val name : string

  val schema : t -> Schema.t

  val describe : t -> string

  val point : t -> Cell.t -> (Agg.t, error) result

  val range : t -> Query.range -> ((Cell.t * Agg.t) list, error) result

  val iceberg : t -> Agg.func -> threshold:float -> ((Cell.t * Agg.t) list, error) result

  val explain : t -> Cell.t -> (explanation, error) result

  val node_accesses : t -> Cell.t -> (int, error) result
end

let check_arity schema width =
  let expected = Schema.n_dims schema in
  if expected <> width then Error (Arity_mismatch { expected; got = width }) else Ok ()

let by_cell (c1, _) (c2, _) = Cell.compare_dict c1 c2

module Tree_backend = struct
  type t = Qc_tree.t

  let name = "tree"

  let schema = Qc_tree.schema

  let describe t =
    Printf.sprintf "mutable QC-tree: %d nodes, %d links, %d classes" (Qc_tree.n_nodes t)
      (Qc_tree.n_links t) (Qc_tree.n_classes t)

  let point = Query.point_result

  let range = Query.range_result

  let iceberg t func ~threshold =
    let out = ref [] in
    Qc_tree.iter_classes
      (fun _ cell agg -> if Agg.value func agg >= threshold then out := (cell, agg) :: !out)
      t;
    Ok (List.sort by_cell !out)

  let explain t cell =
    match check_arity (schema t) (Array.length cell) with
    | Error _ as e -> e
    | Ok () ->
      let e = Query.explain t cell in
      Ok
        {
          x_cell = e.Query.cell;
          x_steps =
            List.map
              (fun (s : Query.step) ->
                {
                  step_kind = s.Query.kind;
                  step_dim = s.Query.target.Qc_tree.dim;
                  step_label = s.Query.target.Qc_tree.label;
                  step_cell = Qc_tree.node_cell t s.Query.target;
                })
              e.Query.steps;
          x_outcome = e.Query.outcome;
          x_answer =
            Option.map (fun (n, agg) -> (Qc_tree.node_cell t n, agg)) e.Query.result;
        }

  let node_accesses t cell =
    match check_arity (schema t) (Array.length cell) with
    | Error _ as e -> e
    | Ok () -> Ok (Query.node_accesses t cell)
end

module Packed_backend = struct
  type t = Packed.t

  let name = "packed"

  let schema = Packed.schema

  let describe t =
    Printf.sprintf "packed QC-tree: %d nodes, %d links, %d classes, %d resident bytes"
      (Packed.n_nodes t) (Packed.n_links t) (Packed.n_classes t) (Packed.resident_bytes t)

  let point = Query.point_result_packed

  let range = Query.range_result_packed

  (* a binary search on the image's iceberg index; only the k answers are
     materialised *)
  let iceberg t func ~threshold =
    let out = ref [] in
    Packed.iter_at_least (fun cell agg -> out := (cell, agg) :: !out) t func ~threshold;
    Ok (List.sort by_cell !out)

  let explain t cell =
    match check_arity (schema t) (Array.length cell) with
    | Error _ as e -> e
    | Ok () ->
      let e = Query.explain_packed t cell in
      Ok
        {
          x_cell = e.Query.pcell;
          x_steps =
            List.map
              (fun (s : Query.packed_step) ->
                {
                  step_kind = s.Query.pkind;
                  step_dim = Packed.dim t s.Query.pnode;
                  step_label = Packed.label t s.Query.pnode;
                  step_cell = Packed.node_cell t s.Query.pnode;
                })
              e.Query.psteps;
          x_outcome = e.Query.poutcome;
          x_answer =
            Option.map (fun (n, agg) -> (Packed.node_cell t n, agg)) e.Query.presult;
        }

  let node_accesses t cell =
    match check_arity (schema t) (Array.length cell) with
    | Error _ as e -> e
    | Ok () -> Ok (Query.node_accesses_packed t cell)
end

(* ---------- batch queries ----------

   The query vocabulary and both its codecs live in {!Request} (the one
   surface shared with the CLI and the wire protocol); the engine
   re-exports the constructors so existing [E.Point ...] call sites keep
   compiling, and delegates parsing/rendering. *)

type query = Request.query =
  | Point of Cell.t
  | Range of Query.range
  | Iceberg of { func : Agg.func; threshold : float }

type answer = Request.answer = Agg_answer of Agg.t | Cells_answer of (Cell.t * Agg.t) list

type outcome = (answer, error) result

let answer_equal = Request.answer_equal

let outcome_equal = Request.outcome_equal

let parse_query = Request.parse_query

let parse_queries = Request.queries_of_lines

let query_kind = Request.query_kind

let render_query = Request.render_query

(* ---------- the slow-query log ----------

   Logs reporters are not domain-safe, so workers never log directly:
   each domain buffers its slow-query entries in DLS, the batch executor
   merges them in chunk order with the other deltas, and the coordinator
   emits them on the [qc.slow] source after the join — deterministic
   order, no interleaved reporters. *)

let slow_src = Logs.Src.create "qc.slow" ~doc:"Queries exceeding the slow-query threshold"

module Slow_log = (val Logs.src_log slow_src)

(* threshold in nanoseconds; max_int = disabled *)
let slow_threshold_ns = Atomic.make max_int

let set_slow_threshold_ms = function
  | None -> Atomic.set slow_threshold_ns max_int
  | Some ms ->
    if not (Float.is_finite ms) || ms < 0.0 then
      invalid_arg "Engine.set_slow_threshold_ms: threshold must be finite and non-negative";
    Atomic.set slow_threshold_ns (int_of_float (ms *. 1e6))

type slow_entry = { se_query : string; se_latency_ns : int; se_nodes : int (* -1 unknown *) }

let slow_key : slow_entry list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let m_slow = Metrics.counter "engine.slow_queries"

let drain_slow () =
  let r = Domain.DLS.get slow_key in
  let es = List.rev !r in
  r := [];
  es

let absorb_slow es =
  let r = Domain.DLS.get slow_key in
  r := List.rev_append es !r

let flush_slow_log () =
  List.iter
    (fun e ->
      Slow_log.warn (fun m ->
          m "slow query: %s latency=%.3fms nodes=%s" e.se_query
            (float_of_int e.se_latency_ns /. 1e6)
            (if e.se_nodes >= 0 then string_of_int e.se_nodes else "-")))
    (drain_slow ())

(* ---------- the parallel batch executor ---------- *)

type chunk_stat = {
  chunk : int;
  c_lo : int;
  c_hi : int;
  c_domain : int;
  c_elapsed_s : float;
}

type batch = {
  outcomes : outcome array;
  accesses : int array option;
  jobs : int;
  elapsed_s : float;
  chunks : chunk_stat array;
}

let default_jobs () =
  match Sys.getenv_opt "QC_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* the uninstrumented dispatch — also the baseline BENCH_PR6 compares the
   instrumented wrapper against to bound the tracer-disabled overhead *)
let run_one_plain (type a) (module B : BACKEND with type t = a) (b : a) = function
  | Point cell -> (
    match B.point b cell with Ok agg -> Ok (Agg_answer agg) | Error _ as e -> e)
  | Range q -> (
    match B.range b q with Ok cells -> Ok (Cells_answer cells) | Error _ as e -> e)
  | Iceberg { func; threshold } -> (
    match B.iceberg b func ~threshold with
    | Ok cells -> Ok (Cells_answer cells)
    | Error _ as e -> e)

let m_query_us =
  Metrics.histogram
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192 |]
    "engine.query_us"

let run_one (type a) (module B : BACKEND with type t = a) (b : a) q =
  let tracing = Trace.enabled () in
  let slow_ns = Atomic.get slow_threshold_ns in
  if not (tracing || Metrics.enabled () || slow_ns < max_int) then run_one_plain (module B) b q
  else begin
    let t0 = Clock.now_ns () in
    let out =
      if tracing then
        Trace.with_span ~cat:"engine"
          ~args:[ ("backend", Trace.String B.name) ]
          (query_kind q)
          (fun () ->
            let out = run_one_plain (module B) b q in
            (match q with
            | Point cell -> (
              match B.node_accesses b cell with
              | Ok k -> Trace.add_attr "nodes" (Trace.Int k)
              | Error _ -> ())
            | Range _ | Iceberg _ -> ());
            (match out with
            | Ok _ -> ()
            | Error e -> Trace.add_attr "error" (Trace.String (error_to_string e)));
            out)
      else run_one_plain (module B) b q
    in
    let dt = Clock.now_ns () - t0 in
    Metrics.observe m_query_us (dt / 1000);
    if dt >= slow_ns then begin
      Metrics.incr m_slow;
      let nodes =
        match q with
        | Point cell -> ( match B.node_accesses b cell with Ok k -> k | Error _ -> -1)
        | Range _ | Iceberg _ -> -1
      in
      let r = Domain.DLS.get slow_key in
      r :=
        { se_query = render_query (B.schema b) q; se_latency_ns = dt; se_nodes = nodes } :: !r
    end;
    out
  end

let m_batch = Metrics.counter "engine.batch"

let m_batch_queries = Metrics.counter "engine.batch_queries"

let run_batch (type a) ?jobs ?(node_accesses = false) ?chunk_order
    (module B : BACKEND with type t = a) (b : a) (queries : query array) =
  let n = Array.length queries in
  let jobs =
    match jobs with Some j when j >= 1 -> j | Some _ -> 1 | None -> default_jobs ()
  in
  let jobs = max 1 (min jobs n) in
  let outcomes = Array.make n (Error (Bad_query "query was not evaluated")) in
  let accesses = if node_accesses then Some (Array.make n 0) else None in
  let run_slot i =
    let q = queries.(i) in
    outcomes.(i) <- run_one (module B) b q;
    match accesses with
    | None -> ()
    | Some acc -> (
      match q with
      | Point cell -> (
        match B.node_accesses b cell with Ok k -> acc.(i) <- k | Error _ -> ())
      | Range _ | Iceberg _ -> ())
  in
  let tracing = Trace.enabled () in
  let chunks =
    Array.init jobs (fun k -> { chunk = k; c_lo = 0; c_hi = 0; c_domain = 0; c_elapsed_s = 0.0 })
  in
  (* chunk k is queries [k*n/jobs, (k+1)*n/jobs); each invocation writes
     only chunks.(k), so workers touch disjoint slots *)
  let run_chunk k =
    let lo = k * n / jobs and hi = (((k + 1) * n) / jobs) - 1 in
    let t0 = Clock.now_ns () in
    let body () =
      for i = lo to hi do
        run_slot i
      done
    in
    if tracing then
      Trace.with_span ~cat:"engine"
        ~args:[ ("chunk", Trace.Int k); ("lo", Trace.Int lo); ("hi", Trace.Int (hi + 1)) ]
        "engine.chunk" body
    else body ();
    chunks.(k) <-
      {
        chunk = k;
        c_lo = lo;
        c_hi = hi + 1;
        c_domain = (Domain.self () :> int);
        c_elapsed_s = Clock.ns_to_s (Clock.now_ns () - t0);
      }
  in
  let execute () =
    if jobs = 1 then run_chunk 0
    else begin
      (* Exactly [jobs] contiguous chunks.  Each worker domain writes
         disjoint slots of the shared arrays and hands back its drained
         metrics, trace spans and slow-query entries; the coordinator
         absorbs the deltas in chunk order after the joins, so totals,
         span multisets and log order match a sequential run exactly. *)
      let order =
        match chunk_order with
        | None -> Array.init jobs (fun k -> k)
        | Some o ->
          if Array.length o <> jobs then
            invalid_arg "Engine.run_batch: chunk_order must have one entry per job";
          let seen = Array.make jobs false in
          Array.iter
            (fun k ->
              if k < 0 || k >= jobs || seen.(k) then
                invalid_arg "Engine.run_batch: chunk_order must be a permutation";
              seen.(k) <- true)
            o;
          o
      in
      let metrics_on = Metrics.enabled () in
      let workers =
        Array.map
          (fun k ->
            ( k,
              Domain.spawn (fun () ->
                  run_chunk k;
                  ( (if metrics_on then Some (Metrics.drain ()) else None),
                    (if tracing then Some (Trace.drain ()) else None),
                    drain_slow () )) ))
          order
      in
      let deltas = Array.make jobs None in
      Array.iter (fun (k, d) -> deltas.(k) <- Some (Domain.join d)) workers;
      Array.iter
        (function
          | Some (md, td, sd) ->
            Option.iter Metrics.absorb md;
            Option.iter Trace.absorb td;
            absorb_slow sd
          | None -> ())
        deltas
    end
  in
  let (), elapsed_s =
    Qc_util.Timer.time (fun () ->
        if tracing then
          Trace.with_span ~cat:"engine"
            ~args:[ ("backend", Trace.String B.name); ("jobs", Trace.Int jobs); ("queries", Trace.Int n) ]
            "engine.batch" execute
        else execute ())
  in
  Metrics.incr m_batch;
  Metrics.add m_batch_queries n;
  flush_slow_log ();
  { outcomes; accesses; jobs; elapsed_s; chunks }
