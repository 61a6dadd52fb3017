(* The benchmark program.  See README.md in this directory for the
   workloads, the metrics and how to read a traced run.

   perfbench.exe --qct PATH --workload NAME --seed N --seconds S --trace 0|1

   Prints a human-readable report and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exits non-zero, without
   that line, only when the run could not be carried out. *)

module K = Inputs
module W = Qc_warehouse.Warehouse
module R = Qc_core.Request
module E = Qc_core.Engine
module Jx = Qc_util.Jsonx

exception Setup_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Setup is repeated this many times per run; setup_s is the median. *)
let setup_reps = 3

(* Visibility probes go out 5 ms apart: fine against freshness of about a
   second, and too few to load the server. *)
let probe_gap_ns = 5_000_000

(* The paced writer may fall this far behind its schedule before the run
   counts it as a failure (one default ingest batch interval). *)
let max_late_s = 0.25

let serve_poll_s = 0.25

let server_config =
  "workers 1, cache 1024 entries, poll 0.25 s, max-clients 256, max-pending 64 (qct serve defaults)"

(* ---------- processes ---------- *)

type procs = {
  serve : int;
  serve_out : Unix.file_descr;
  serve_started : float;
  port : int;
  ingest : int;
  ingest_in : Unix.file_descr;
  mutable stream_open : bool;  (** [ingest_in] not yet closed *)
  conn : Client.t;
}

(* End of stream for qct ingest; closing twice could close a reused fd. *)
let end_stream p =
  if p.stream_open then begin
    p.stream_open <- false;
    Unix.close p.ingest_in
  end

let read_line_until fd deadline =
  let b = Buffer.create 80 and c = Bytes.create 1 in
  let rec go () =
    if Util.now_s () > deadline then fail "qct serve did not report its port"
    else
      match Unix.select [ fd ] [] [] 0.1 with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd c 0 1 with
        | 0 -> fail "qct serve exited before listening"
        | _ when Char.equal (Bytes.get c 0) '\n' -> Buffer.contents b
        | _ ->
          Buffer.add_char b (Bytes.get c 0);
          go ())
  in
  go ()

(* "listening on 127.0.0.1:PORT (generation N)" *)
let parse_port line =
  match String.split_on_char ':' line with
  | [ _; rest ] -> (
    match int_of_string_opt (List.hd (String.split_on_char ' ' rest)) with
    | Some p -> p
    | None -> fail "bad banner %S" line)
  | _ -> fail "bad banner %S" line

(* Build the warehouse directory with qct (Algorithm 1, freeze,
   checkpoint), start qct serve and qct ingest, and wait for the first
   correct answer and for ingest to be reading its stream. *)
let start ~qct ~work ~(inp : K.t) =
  let wh = Filename.concat work "wh" in
  Util.rm_rf wh;
  Util.mkdir_p wh;
  let log name = Filename.concat work name in
  let t0 = Util.now_ns () in
  let build = [ "build"; "--backend"; "packed"; inp.base_csv; Filename.concat wh "tree.qct" ] in
  if Proc.run qct build ~log:(log "build.log") <> 0 then fail "qct build failed (see %s)" (log "build.log");
  Util.copy_file inp.base_csv (Filename.concat wh "base.csv");
  if Proc.run qct [ "recover"; wh ] ~log:(log "recover.log") <> 0 then
    fail "qct recover failed (see %s)" (log "recover.log");
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Proc.open_out_fd (log "serve.err") in
  let serve = Proc.spawn ~stdout:out_w ~stderr:err qct [ "serve"; wh; "--port"; "0" ] in
  let serve_started = Util.now_s () in
  Unix.close out_w;
  Unix.close err;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out = Proc.open_out_fd (log "ingest.out") and err = Proc.open_out_fd (log "ingest.err") in
  let ingest =
    Proc.spawn ~stdin:in_r ~stdout:out ~stderr:err qct
      [
        "ingest"; wh; "--refreeze-rows"; string_of_int inp.wl.refreeze_rows; "--refreeze-secs";
        "1000000"; "--json";
      ]
  in
  List.iter Unix.close [ in_r; out; err ];
  Unix.set_nonblock in_w;
  let deadline = Util.now_s () +. 120.0 in
  let port = parse_port (read_line_until out_r deadline) in
  let conn = Client.connect port in
  let rec first_answer () =
    let reply = Client.call conn inp.apex in
    if Client.int_field reply "count" <> inp.base_rows then
      if Util.now_s () > deadline then fail "no correct first answer: %s" reply
      else begin
        Unix.sleepf 0.002;
        first_answer ()
      end
  in
  first_answer ();
  (* ingest has opened the warehouse once its producer domain exists *)
  while Proc.threads ingest < 2 do
    if Util.now_s () > deadline then fail "qct ingest did not start";
    Unix.sleepf 0.002
  done;
  let dt = Util.ns_to_s (Util.now_ns () - t0) in
  ( { serve; serve_out = out_r; serve_started; port; ingest; ingest_in = in_w; stream_open = true; conn },
    dt )

let stop_procs p =
  Client.close p.conn;
  end_stream p;
  ignore (Proc.wait_until p.ingest (Util.now_s () +. 60.0));
  ignore (Proc.stop ~signal:Sys.sigint p.serve);
  Unix.close p.serve_out

type stats_reply = { generation : int; classes : int; nodes : int; hits : int; misses : int }

let stats conn =
  let reply = Client.call conn "stats" in
  let f k = Client.int_field reply k in
  {
    generation = f "generation";
    classes = f "classes";
    nodes = f "nodes";
    hits = f "cache_hits";
    misses = f "cache_misses";
  }

(* ---------- the row stream ---------- *)

type stream = {
  rows : int;
  fresh_s : float array;  (** per served row: first served answer counting it − its write *)
  never_served : int;
  regressions : int;
  overshoots : int;
  late_s : float;
  cpu_us_per_row : float;
  ingest_rss_mb : float;
  ingest_json : Jx.t;
  ingest_exit : int;
  generations : int;
}

let stream_failures s =
  s.never_served + s.regressions + s.overshoots
  + (if s.late_s > max_late_s then 1 else 0)
  + if s.ingest_exit <> 0 then 1 else 0

(* Peak RSS of qct ingest, sampled at most every 5 ms while it runs (an
   exited process no longer reports it). *)
type hwm = { pid : int; mutable peak : float; mutable next_ns : int }

let sample h =
  let now = Util.now_ns () in
  if now >= h.next_ns then begin
    h.next_ns <- now + 5_000_000;
    try h.peak <- Float.max h.peak (Proc.hwm_mib h.pid) with Sys_error _ | Not_found -> ()
  end

let apex_check vis (w : Load.writer) h ~line:_ ~kind:_ ~reply ~recv =
  sample h;
  if Client.is_ok reply then begin
    Load.observe vis ~count:(Client.int_field reply "count") ~now:recv ~written:(Load.rows_written w);
    `Ok
  end
  else `Error

(* After the last row is written: end the stream (ingest flushes, waits
   for its refreeze and checkpoints the rest), probe until every row is
   served, and collect ingest's CPU, peak RSS and summary.  [cpu0] is the
   ingest CPU spent before the first row (opening the warehouse). *)
let finish_stream ~work ~(inp : K.t) p (w : Load.writer) vis h ~cpu0 probes =
  let n = Array.length inp.stream in
  while not (Load.writer_done w) do
    Load.pump w;
    if not (Load.writer_done w) then Unix.sleepf 0.001
  done;
  end_stream p;
  let deadline = Util.now_s () +. 90.0 in
  Load.run ~gap_ns:probe_gap_ns ~conns:[| p.conn |] ~depth:1
    ~next:(fun _ -> (inp.apex, K.Point))
    ~check:(apex_check vis w h)
    ~stop:(fun () -> vis.Load.visible >= n || Util.now_s () > deadline)
    probes;
  let cpu_before = Proc.reaped_children_cpu_s () in
  let status = ref None in
  while Option.is_none !status && Util.now_s () < deadline do
    sample h;
    status := Proc.wait_until p.ingest (Util.now_s () +. 0.002)
  done;
  let ingest_exit = match !status with Some (Unix.WEXITED c) -> c | Some _ | None -> -1 in
  let cpu = Proc.reaped_children_cpu_s () -. cpu_before -. cpu0 in
  let ingest_json =
    match Jx.parse (Util.read_all (Filename.concat work "ingest.out")) with Ok j -> j | Error _ -> Jx.Null
  in
  let fresh = ref [] in
  Array.iteri
    (fun i t -> if t > 0 then fresh := Util.ns_to_s (t - w.Load.written.(i)) :: !fresh)
    vis.Load.first_seen;
  {
    rows = n;
    fresh_s = Array.of_list !fresh;
    never_served = n - vis.Load.visible;
    regressions = vis.Load.regressions;
    overshoots = vis.Load.overshoots;
    late_s = Util.ns_to_s w.Load.late_ns;
    cpu_us_per_row = cpu *. 1e6 /. float_of_int (max 1 n);
    ingest_rss_mb = h.peak;
    ingest_json;
    ingest_exit;
    generations = vis.Load.steps;
  }

(* The stream's state; [start] fixes its schedule and the ingest CPU spent
   before it (opening the warehouse), right before the first row. *)
let new_stream (inp : K.t) p =
  let n = Array.length inp.stream in
  let cpu0 = ref 0.0 in
  let w = Load.writer p.ingest_in inp.stream ~rate:inp.wl.stream_rate ~t0:0 in
  let h = { pid = p.ingest; peak = 0.0; next_ns = 0 } in
  let start () =
    cpu0 := Proc.cpu_s p.ingest;
    sample h;
    w.Load.t0 <- Util.now_ns () + 1_000_000
  in
  (w, Load.visibility ~base:inp.base_rows ~rows:n, h, cpu0, start)

(* ---------- reads ---------- *)

type reads = {
  warm : Load.tally;
  tally : Load.tally;
  t0 : int;
  span_ns : int;
  elapsed_s : float;
  st0 : stats_reply;
  st1 : stats_reply;
  serve_cpu_s : float;
  steal_pct : float;  (** host steal over the timed phase, % of all CPU time *)
}

(* Untimed reads of the same mix before the timed phase: the first second
   after a start or a generation swap runs slower (heap growth, page
   faults) and is not what a long-running server shows. *)
let warmup_s = 2.0

let timed_reads ?writer ?(on_start = ignore) ~conns ~depth ~next ~check ~seconds p =
  let warm = Load.tally () in
  let until = Util.now_ns () + int_of_float (warmup_s *. 1e9) in
  Load.run ~conns ~depth ~next ~check ~stop:(fun () -> Util.now_ns () >= until) warm;
  let next seq = next (seq + warm.Load.sent) in
  let st0 = stats p.conn and cpu0 = Proc.cpu_s p.serve in
  on_start ();
  let all0, steal0 = Proc.host_ticks () in
  let tally = Load.tally () in
  let t0 = Util.now_ns () in
  let span_ns = int_of_float (seconds *. 1e9) in
  Load.run ?writer ~conns ~depth ~next ~check ~stop:(fun () -> Util.now_ns () >= t0 + span_ns) tally;
  let elapsed_s = Util.ns_to_s (Util.now_ns () - t0) in
  let cpu1 = Proc.cpu_s p.serve in
  let all1, steal1 = Proc.host_ticks () in
  let st1 = stats p.conn in
  {
    warm;
    tally;
    t0;
    span_ns;
    elapsed_s;
    st0;
    st1;
    serve_cpu_s = cpu1 -. cpu0;
    steal_pct = 100.0 *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (all1 - all0));
  }

(* Latency and throughput statistics are medians over this many windows
   of the timed phase. *)
let windows = 5

(* ---------- expected answers ---------- *)

(* The response line qct serve must send: the same parse, engine and
   encoding calls, on the same packed image, outside the timed phase. *)
let answer packed schema line =
  match R.of_wire schema line with
  | Ok (R.Query q) ->
    Jx.to_string (R.response_to_json schema (R.Answer (E.run_one (module E.Packed_backend) packed q)))
  | Ok _ -> invalid_arg "answer: not a query"
  | Error e -> Jx.to_string (R.response_to_json schema (R.Answer (Error e)))

let expected_table packed lines =
  let schema = Qc_core.Packed.schema packed in
  let tbl = Hashtbl.create (2 * Array.length lines) in
  Array.iter (fun l -> if not (Hashtbl.mem tbl l) then Hashtbl.replace tbl l (answer packed schema l)) lines;
  tbl

(* Byte-for-byte comparison; [plant] makes the first comparison expect a
   wrong line, which the self-test uses to prove failures are counted. *)
let checker ~plant tbl =
  let planted = ref (not plant) in
  fun ~line ~kind:_ ~reply ~recv:_ ->
    let expected = match Hashtbl.find_opt tbl line with Some e -> e | None -> "" in
    let expected =
      if !planted then expected
      else begin
        planted := true;
        expected ^ " "
      end
    in
    if String.equal reply expected then `Ok else if Client.is_ok reply then `Wrong else `Error

(* ingest-read's final check: answers on the last generation equal those
   of a tree rebuilt in-process over base ∪ stream. *)
let rebuilt_packed (inp : K.t) =
  let table = Qc_data.Csv.of_string (Util.read_all inp.base_csv) in
  let n_dims = Qc_cube.Table.n_dims table in
  Array.iter
    (fun l ->
      match Qc_warehouse.Ingest.parse_line ~n_dims l with
      | Ok (vs, m) -> Qc_cube.Table.add_row table vs m
      | Error e -> invalid_arg e)
    inp.stream;
  Qc_core.Packed.of_tree (Qc_core.Qc_tree.of_table table)

(* ---------- one run ---------- *)

type outcome = {
  e2e : Layers.metric list;
  layers : Layers.metric list;
  attempted : int;
  failed : int;
  notes : string list;
}

let run_workload ~qct ~(wl : K.workload) ~seed ~seconds ~trace ~plant =
  (* only the latest run's warehouse directories are kept *)
  Util.rm_rf ".perfbench/work";
  let work = Printf.sprintf ".perfbench/work/%s-seed%d" wl.name seed in
  Util.mkdir_p work;
  if trace then Spans.enable ();
  say "# perfbench %s, seed %d, %g s, trace %d" wl.name seed seconds (if trace then 1 else 0);
  say "# context: nproc %d, OCaml %s, placement unpinned (no CPU affinity is set)"
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let inp = K.make wl ~seed ~seconds ~dir:work in
  say "# inputs: %d base rows, %d streamed rows at %g rows/s (%s), %d distinct request lines"
    inp.base_rows (Array.length inp.stream) wl.stream_rate
    (match wl.stream_rows with Some _ -> "before the reads" | None -> "during the reads")
    (Array.length (K.all_lines inp));
  say "# qct ingest flags: --refreeze-rows %d --refreeze-secs 1000000, default batches (256 rows or 0.25 s)"
    wl.refreeze_rows;
  say "# qct serve config: %s; reads: %d connection(s) x %d in flight, closed loop" server_config wl.conns
    wl.depth;
  let setups = ref [] and procs = ref None in
  for rep = 1 to setup_reps do
    let p, dt = start ~qct ~work ~inp in
    setups := dt :: !setups;
    if rep < setup_reps then stop_procs p else procs := Some p
  done;
  let p = Option.get !procs in
  let setup_s = Util.median (Array.of_list !setups) in
  say "# setup_s samples: %s" (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setups));
  let wh = Filename.concat work "wh" in
  let initial = Filename.concat work "wh-initial" in
  if trace then Util.copy_dir wh initial;
  let probes = Load.tally () in
  let extra_attempted = ref 0 and extra_failed = ref 0 in
  let connect_all () = Array.init wl.conns (fun i -> if i = 0 then p.conn else Client.connect p.port) in
  let stream, reads, packed =
    match wl.stream_rows with
    | Some _ ->
      (* a load phase, then reads of the final image *)
      let w, vis, h, cpu0, start = new_stream inp p in
      start ();
      Load.run ~writer:w ~gap_ns:probe_gap_ns ~conns:[| p.conn |] ~depth:1
        ~next:(fun _ -> (inp.apex, K.Point))
        ~check:(apex_check vis w h)
        ~stop:(fun () -> Load.writer_done w)
        probes;
      let s = finish_stream ~work ~inp p w vis h ~cpu0:!cpu0 probes in
      let packed = W.packed (W.open_dir wh) in
      let tbl = expected_table packed (K.all_lines inp) in
      (match wl.mix with
      | K.Hot ->
        (* fill the result cache: the timed phase measures hits *)
        Array.iter
          (fun l ->
            incr extra_attempted;
            if not (String.equal (Client.call p.conn l) (Hashtbl.find tbl l)) then incr extra_failed)
          (K.all_lines inp)
      | K.Olap | K.Stream_read -> ());
      let conns = connect_all () in
      let r =
        timed_reads ~conns ~depth:wl.depth ~next:inp.next ~check:(checker ~plant tbl) ~seconds p
      in
      Array.iteri (fun i c -> if i > 0 then Client.close c) conns;
      (s, r, packed)
    | None ->
      (* the stream runs under the reads *)
      let w, vis, h, cpu0, start = new_stream inp p in
      let check ~line ~kind ~reply ~recv =
        if String.equal line inp.apex then apex_check vis w h ~line ~kind ~reply ~recv
        else if Client.is_ok reply then `Ok
        else `Error
      in
      let conns = connect_all () in
      let r =
        timed_reads ~writer:w ~on_start:start ~conns ~depth:wl.depth ~next:inp.next ~check ~seconds p
      in
      Array.iteri (fun i c -> if i > 0 then Client.close c) conns;
      let s = finish_stream ~work ~inp p w vis h ~cpu0:!cpu0 probes in
      let packed = rebuilt_packed inp in
      let sub a k = Array.sub a 0 (min k (Array.length a)) in
      let sample =
        Array.concat [ [| inp.apex |]; sub inp.points 300; sub inp.ranges 20; sub inp.icebergs 3 ]
      in
      let tbl = expected_table packed sample in
      let check = checker ~plant tbl in
      Array.iter
        (fun l ->
          incr extra_attempted;
          match check ~line:l ~kind:K.Point ~reply:(Client.call p.conn l) ~recv:0 with
          | `Ok -> ()
          | `Wrong | `Error -> incr extra_failed)
        sample;
      (s, r, packed)
  in
  let final = stats p.conn in
  let serve_rss = Proc.hwm_mib p.serve in
  let serve_lifetime = Util.now_s () -. p.serve_started in
  let dir_bytes = Util.dir_bytes wh in
  stop_procs p;
  say "# warehouse at the end: %d rows, %d classes, %d nodes, %d packed bytes, generation %d"
    (inp.base_rows + stream.rows) final.classes final.nodes
    (Qc_core.Packed.resident_bytes packed)
    final.generation;
  let r = reads.tally in
  let n k = Util.Vec.length r.Load.lat.(Load.kind_index k) in
  (* windowed when each window still has ten samples beyond the
     percentile; otherwise one percentile over the whole timed phase *)
  let pct kind p =
    let beyond = float_of_int (n kind) /. float_of_int windows *. (1.0 -. (p /. 100.0)) in
    if beyond >= 10.0 then
      let v, nw =
        Load.windowed r ~t0:reads.t0 ~span_ns:reads.span_ns ~windows ~kinds:[ kind ] (fun a ->
            Util.percentile a p)
      in
      (v, Printf.sprintf "median over %d windows of the p%g of %d %s requests" nw p (n kind) (K.kind_name kind))
    else
      ( Util.percentile (Util.floats_of_ns Util.ns_to_ms r.Load.lat.(Load.kind_index kind)) p,
        Printf.sprintf "p%g of %d %s requests" p (n kind) (K.kind_name kind) )
  in
  let lat name kind p =
    let v, base = pct kind p in
    Layers.m name v "ms" base
  in
  let point_p50, _ = pct K.Point 50.0 in
  let window_rps = Load.window_rps r ~t0:reads.t0 ~span_ns:reads.span_ns ~windows in
  let e2e =
    [
      Layers.m "setup_s" setup_s "s" (Printf.sprintf "median of %d setups" setup_reps);
      Layers.m "rps" (Util.median window_rps) "1/s"
        (Printf.sprintf "median over %d equal slices of %d completed reads in %.3f s" windows
           r.Load.completed reads.elapsed_s);
      lat "point_p50_ms" K.Point 50.0;
      lat "point_p99_ms" K.Point 99.0;
      lat "range_p50_ms" K.Range 50.0;
      lat "range_p99_ms" K.Range 99.0;
      lat "iceberg_p50_ms" K.Iceberg 50.0;
      Layers.m "fresh_p50_s" (Util.median stream.fresh_s) "s"
        (Printf.sprintf "median over %d streamed rows" (Array.length stream.fresh_s));
      Layers.m "ingest_cpu_us_per_row" stream.cpu_us_per_row "us"
        (Printf.sprintf "qct ingest user+sys CPU / %d rows" stream.rows);
      Layers.m "serve_rss_mb" serve_rss "MiB" "VmHWM of qct serve";
      Layers.m "ingest_rss_mb" stream.ingest_rss_mb "MiB" "VmHWM of qct ingest";
      Layers.m "dir_mb" (Util.mib dir_bytes) "MiB" "warehouse directory at the end";
    ]
  in
  let w = reads.warm in
  let failed =
    Load.failures w + Load.failures r + Load.failures probes + stream_failures stream + !extra_failed
  in
  let attempted = w.Load.sent + r.Load.sent + probes.Load.sent + stream.rows + !extra_attempted in
  let notes =
    [
      Printf.sprintf
        "warm-up reads: %d sent, %d failed; timed reads: %d sent, %d errors, %d wrong, %d lost to closes; probes: %d sent, %d failed; extra checks: %d/%d failed"
        w.Load.sent (Load.failures w) r.Load.sent r.Load.errors r.Load.wrong r.Load.closed_early
        probes.Load.sent
        (Load.failures probes) !extra_failed !extra_attempted;
      Printf.sprintf "host steal during the timed reads: %.2f%% of all CPU time" reads.steal_pct;
      Printf.sprintf "rps by slice: %s"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") window_rps)));
      Printf.sprintf
        "stream: %d rows, %d never served, %d count regressions, %d overshoots, writer late %.4f s, ingest exit %d, %d generations seen; qct ingest: %s"
        stream.rows stream.never_served stream.regressions stream.overshoots stream.late_s stream.ingest_exit
        stream.generations (Jx.to_string stream.ingest_json);
    ]
  in
  let layers =
    if not trace then []
    else begin
      let int_of key = match Jx.member key stream.ingest_json with Some (Jx.Int v) -> v | _ -> -1 in
      let batches = int_of "batches" in
      let batch_rows = if batches > 0 then (stream.rows + batches - 1) / batches else 256 in
      let build = Layers.build ~inp ~work in
      let reqs, point_call_us = Layers.requests ~inp ~packed in
      let writes = Layers.writes ~inp ~work ~initial ~batch_rows in
      let lookups = reads.st1.hits + reads.st1.misses - reads.st0.hits - reads.st0.misses in
      let server =
        [
          Layers.m "server.self_us.point"
            ((point_p50 *. 1e3) -. point_call_us)
            "us" "point p50 latency - (parse + engine + encode) per point call";
          Layers.m "server.cpu_us_per_req"
            (reads.serve_cpu_s *. 1e6 /. float_of_int (max 1 r.Load.completed))
            "us"
            (Printf.sprintf "qct serve CPU over the timed reads / %d requests" r.Load.completed);
          Layers.m "server.cache_hit_ratio"
            (if lookups > 0 then float_of_int (reads.st1.hits - reads.st0.hits) /. float_of_int lookups
             else 0.0)
            "ratio"
            (Printf.sprintf "result-cache hits / %d lookups over the timed reads" lookups);
          Layers.m "ingest.batches" (float_of_int batches) "count" "qct ingest --json";
          Layers.m "ingest.refreezes" (float_of_int (int_of "refreezes")) "count" "qct ingest --json";
          Layers.m "ingest.refreeze_failures"
            (float_of_int (int_of "refreeze_failures"))
            "count" "qct ingest --json";
          Layers.m "ingest.writer_late_s" stream.late_s "s" "worst lateness of the paced row writer";
          Layers.m "publish.useful_poll_ratio"
            (float_of_int stream.generations /. (serve_lifetime /. serve_poll_s))
            "ratio"
            (Printf.sprintf "%d generations / %.0f watcher polls" stream.generations
               (serve_lifetime /. serve_poll_s));
        ]
      in
      let traced = List.map (fun (x : Layers.metric) -> { x with name = "traced." ^ x.name }) e2e in
      server @ reqs @ build @ writes @ traced
    end
  in
  { e2e; layers; attempted; failed; notes }

(* ---------- output ---------- *)

let metrics_json ms =
  Jx.Obj
    (List.map
       (fun (x : Layers.metric) ->
         (x.name, Jx.Obj [ ("value", Jx.Float x.value); ("unit", Jx.String x.unit_) ]))
       ms)

let print_table ms =
  List.iter
    (fun (x : Layers.metric) -> say "%-34s %14.6g %-6s %s" x.name x.value x.unit_ x.base)
    ms

let results_dir = ".perfbench/results"

let main ~qct ~workload ~seed ~seconds ~trace ~toy ~plant =
  let wl =
    match List.find_opt (fun (w : K.workload) -> String.equal w.name workload) (K.workloads ~toy) with
    | Some w -> w
    | None -> fail "unknown workload %S" workload
  in
  let o = run_workload ~qct ~wl ~seed ~seconds ~trace ~plant in
  List.iter (say "# %s") o.notes;
  say "# benchmark process peak RSS %.1f MiB" (Proc.hwm_mib (Unix.getpid ()));
  let bad = List.filter (fun (x : Layers.metric) -> not (Float.is_finite x.value)) (o.e2e @ o.layers) in
  List.iter (fun (x : Layers.metric) -> say "# no samples for %s" x.name) bad;
  let failed = o.failed + List.length bad in
  let shown = if trace then o.layers else o.e2e in
  let shown =
    List.map (fun (x : Layers.metric) -> if Float.is_finite x.value then x else { x with value = 0.0 }) shown
  in
  Util.mkdir_p results_dir;
  let saved =
    Filename.concat results_dir (Printf.sprintf "%s-seed%d%s.json" wl.name seed (if toy then "-toy" else ""))
  in
  if trace then begin
    say "# end-to-end, this traced run beside the last untraced run of %s (%s):" wl.name saved;
    let untraced =
      match Jx.parse (Util.read_all saved) with
      | Ok j -> fun name -> (match Jx.member name j with Some (Jx.Float v) -> Some v | _ -> None)
      | Error _ -> fun _ -> None
      | exception Sys_error _ -> fun _ -> None
    in
    List.iter
      (fun (x : Layers.metric) ->
        match untraced x.name with
        | Some u ->
          say "#   %-24s traced %12.6g  untraced %12.6g %-4s (%+.1f%%)" x.name x.value u x.unit_
            (100.0 *. (x.value -. u) /. u)
        | None -> say "#   %-24s traced %12.6g  untraced        n/a %s" x.name x.value x.unit_)
      o.e2e;
    let path =
      Filename.concat ".perfbench/trace"
        (Printf.sprintf "%s-seed%d%s.json" wl.name seed (if toy then "-toy" else ""))
    in
    Util.mkdir_p ".perfbench/trace";
    let n = Spans.write_chrome path in
    say "# trace: %d spans -> %s (open in https://ui.perfetto.dev or chrome://tracing)" n path
  end
  else
    Util.write_file saved
      (Jx.to_string (Jx.Obj (List.map (fun (x : Layers.metric) -> (x.name, Jx.Float x.value)) o.e2e)));
  print_table shown;
  print_endline
    (Jx.to_string
       (Jx.Obj
          [
            ("correct", Jx.Bool (failed = 0));
            ("attempted", Jx.Int o.attempted);
            ("failed", Jx.Int failed);
            ("metrics", metrics_json shown);
          ]))

let () =
  let qct = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let toy = ref false and plant = ref false in
  Arg.parse
    [
      ("--qct", Arg.Set_string qct, "PATH the qct binary under test");
      ("--workload", Arg.Set_string workload, "NAME olap-read | hot-read | ingest-read");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 run the traced per-layer replay");
      ("--toy", Arg.Set toy, " toy-size inputs (self-test)");
      ("--plant-wrong-answer", Arg.Set plant, " expect one wrong answer (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --qct PATH --workload NAME --seed N --seconds S --trace 0|1";
  at_exit Proc.stop_all;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  match
    main ~qct:!qct ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~toy:!toy
      ~plant:!plant
  with
  | () -> exit 0
  | exception Setup_failed msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
