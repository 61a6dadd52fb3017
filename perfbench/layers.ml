(* The traced run's in-process replay: the same inputs, pushed through each
   layer's public calls with a span around every call, so each layer's
   cost can be read apart from the others.

   Warehouse.insert_rows, run_refreeze and open_dir are timed as the
   library runs them.  Their parts (journal append, Algorithm 2, re-pack;
   freeze, encode, staged commit; decode, byte audit) are public calls too,
   and are timed by calling them on a shadow copy of the same state right
   after, under a sibling [*.split] span that shares the batch or
   generation id.  The library's own Qc_util.Trace spans stay off. *)

open Qc_cube
module K = Inputs
module Core = Qc_core
module W = Qc_warehouse.Warehouse
module R = Core.Request
module E = Core.Engine
module Jx = Qc_util.Jsonx

type metric = { name : string; value : float; unit_ : string; base : string }

let m name value unit_ base = { name; value; unit_; base }

let ms ns = Util.ns_to_ms ns

(* Mean cost of [f] over [items], in ns per item: the whole list is run
   repeatedly until at least 0.2 s has passed, so sub-µs calls read true. *)
let per_call items f =
  let n = Array.length items in
  if n = 0 then Float.nan
  else begin
    let t0 = Util.now_ns () and reps = ref 0 in
    while Util.now_ns () - t0 < 200_000_000 || !reps = 0 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      incr reps
    done;
    float_of_int (Util.now_ns () - t0) /. float_of_int (!reps * n)
  end

let meanf l = Util.mean (Array.of_list l)

(* ---------- build: Algorithm 1, freeze, checkpoint ---------- *)

let build ~(inp : K.t) ~work =
  let table = Qc_data.Csv.of_string (Util.read_all inp.base_csv) in
  let dir = Filename.concat work "replay-build" in
  Util.rm_rf dir;
  let (tree, packed, tree_ns, freeze_ns, save_ns), _ =
    Spans.time ~name:"build" ~group:0 ~track:Spans.build_track (fun parent ->
        let tree, tree_ns =
          Spans.time_ ~name:"build.tree" ~parent ~group:0 ~track:Spans.build_track (fun () ->
              Core.Qc_tree.of_table table)
        in
        let packed, freeze_ns =
          Spans.time_ ~name:"build.freeze" ~parent ~group:0 ~track:Spans.build_track (fun () ->
              Core.Packed.of_tree tree)
        in
        let (), save_ns =
          Spans.time_ ~name:"build.save" ~parent ~group:0 ~track:Spans.build_track (fun () ->
              W.save (W.create_frozen table packed) dir)
        in
        (tree, packed, tree_ns, freeze_ns, save_ns))
  in
  ignore tree;
  [
    m "build.tree_s" (Util.ns_to_s tree_ns) "s" "Qc_tree.of_table, Algorithm 1, once";
    m "build.freeze_s" (Util.ns_to_s freeze_ns) "s" "Packed.of_tree, once";
    m "build.save_s" (Util.ns_to_s save_ns) "s" "Warehouse.save, once";
    m "build.nodes" (float_of_int (Core.Packed.n_nodes packed)) "count" "QC-tree nodes of the base";
    m "build.classes" (float_of_int (Core.Packed.n_classes packed)) "count" "classes of the base";
  ]

(* ---------- requests: parse, engine, encode ---------- *)

let requests ~(inp : K.t) ~packed =
  let schema = Core.Packed.schema packed in
  let parse line = match R.of_wire schema line with Ok (R.Query q) -> q | Ok _ | Error _ -> invalid_arg line in
  let run q = E.run_one (module E.Packed_backend) packed q in
  let encode o = Jx.to_string (R.response_to_json schema (R.Answer o)) in
  let group = ref 0 in
  let kind name lines =
    (* one traced pass: a span per request, with one child per layer call *)
    let bytes = ref 0 and cells = ref 0 in
    Array.iter
      (fun line ->
        incr group;
        ignore
          (Spans.time ~name:("request." ^ name) ~group:!group ~track:Spans.request_replay_track
             (fun parent ->
               let q, _ =
                 Spans.time_ ~name:"request.parse" ~parent ~group:!group ~track:Spans.request_replay_track
                   (fun () -> parse line)
               in
               let o, _ =
                 Spans.time_ ~name:("engine." ^ name) ~parent ~group:!group
                   ~track:Spans.request_replay_track (fun () -> run q)
               in
               let s, _ =
                 Spans.time_ ~name:"request.encode" ~parent ~group:!group ~track:Spans.request_replay_track
                   (fun () -> encode o)
               in
               bytes := !bytes + String.length s;
               match o with
               | Ok (R.Cells_answer l) -> cells := !cells + List.length l
               | Ok (R.Agg_answer _) | Error _ -> ())))
      lines;
    let n = Array.length lines in
    let qs = Array.map parse lines in
    let os = Array.map run qs in
    let nf = float_of_int (max 1 n) in
    ( per_call lines parse /. 1e3,
      per_call qs run /. 1e3,
      per_call os encode /. 1e3,
      float_of_int !bytes /. nf,
      float_of_int !cells /. nf,
      n,
      qs )
  in
  let sub a k = Array.sub a 0 (min k (Array.length a)) in
  let pp, pe, pc, pb, _, np, pqs = kind "point" (sub inp.points 2000) in
  let rp, re, rc, rb, rcells, nr, _ = kind "range" (sub inp.ranges 200) in
  let ip, ie, ic, ib, icells, ni, _ = kind "iceberg" (sub inp.icebergs 6) in
  let nodes =
    Array.fold_left
      (fun acc q ->
        match q with
        | E.Point c -> (
          match E.Packed_backend.node_accesses packed c with Ok k -> acc + k | Error _ -> acc)
        | E.Range _ | E.Iceberg _ -> acc)
      0 pqs
  in
  let per k n = Printf.sprintf "mean per %s request over %d distinct lines" k n in
  ( [
      m "request.parse_us.point" pp "us" (per "point" np ^ ", Request.of_wire");
      m "request.parse_us.range" rp "us" (per "range" nr ^ ", Request.of_wire");
      m "request.parse_us.iceberg" ip "us" (per "iceberg" ni ^ ", Request.of_wire");
      m "request.encode_us.point" pc "us" (per "point" np ^ ", response_to_json + Jsonx.to_string");
      m "request.encode_us.range" rc "us" (per "range" nr ^ ", response_to_json + Jsonx.to_string");
      m "request.encode_us.iceberg" ic "us" (per "iceberg" ni ^ ", response_to_json + Jsonx.to_string");
      m "request.response_bytes.point" pb "bytes" (per "point" np);
      m "request.response_bytes.range" rb "bytes" (per "range" nr);
      m "request.response_bytes.iceberg" ib "bytes" (per "iceberg" ni);
      m "engine.point_us" pe "us" (per "point" np ^ ", Engine.run_one over Packed, batch-timed");
      m "engine.range_us" re "us" (per "range" nr ^ ", Engine.run_one over Packed");
      m "engine.iceberg_us" ie "us" (per "iceberg" ni ^ ", Engine.run_one over Packed");
      m "engine.point_nodes"
        (float_of_int nodes /. float_of_int (max 1 np))
        "count" (per "point" np ^ ", Packed_backend.node_accesses");
      m "engine.range_cells" rcells "count" (per "range" nr ^ ", cells answered");
      m "engine.iceberg_cells" icells "count" (per "iceberg" ni ^ ", cells answered");
      m "packed.classes" (float_of_int (Core.Packed.n_classes packed)) "count"
        "classes in the served image (what an iceberg scans)";
    ],
    pp +. pe +. pc )

(* ---------- the write path, refreeze and publish ---------- *)

let staged_commit dir ~base_data ~tree_data =
  let file n = Filename.concat dir n in
  Qc_util.Durable.write_tmp (file "base.csv") base_data;
  Qc_util.Durable.write_tmp (file "tree.qct") tree_data;
  Qc_util.Durable.write_tmp (file "manifest") "shadow manifest\n";
  Qc_util.Durable.commit_tmp (file "base.csv");
  Qc_util.Durable.commit_tmp (file "tree.qct");
  Qc_util.Durable.fsync_dir dir;
  Qc_util.Durable.commit_tmp (file "manifest");
  Qc_util.Durable.fsync_dir dir

let writes ~(inp : K.t) ~work ~initial ~batch_rows =
  let dir = Filename.concat work "replay-wh" and shadow_dir = Filename.concat work "replay-shadow" in
  Util.rm_rf dir;
  Util.rm_rf shadow_dir;
  Util.copy_dir initial dir;
  Util.mkdir_p shadow_dir;
  let w = W.open_dir dir in
  let schema = W.schema w in
  let n_dims = Schema.n_dims schema in
  let sh_tree = Core.Packed.to_tree (W.packed w) and sh_base = Table.copy (W.table w) in
  let sh_wal = Qc_util.Durable.open_append (Filename.concat shadow_dir "wal.log") in
  let rows =
    Array.map
      (fun l ->
        match Qc_warehouse.Ingest.parse_line ~n_dims l with Ok r -> r | Error e -> invalid_arg e)
      inp.stream
  in
  let parse_us = per_call inp.stream (Qc_warehouse.Ingest.parse_line ~n_dims) /. 1e3 in
  let tr = Spans.write_track in
  let batch_ms = ref [] and wal_ms = ref [] and maint_ms = ref [] and repack_ms = ref [] in
  let seal_ms = ref [] and run_ms = ref [] and freeze_ms = ref [] and csv_enc_ms = ref [] in
  let ser_enc_ms = ref [] and commit_ms = ref [] and complete_ms = ref [] in
  let poll_ms = ref [] and open_ms = ref [] and csv_dec_ms = ref [] and check_ms = ref [] in
  let ser_dec_ms = ref [] in
  let push r ns = r := ms ns :: !r in
  let generation g =
    ignore
      (Spans.time ~name:"generation" ~group:g ~track:tr (fun parent ->
           let task, ns = Spans.time_ ~name:"refreeze.seal" ~parent ~group:g ~track:tr (fun () -> W.seal w) in
           push seal_ms ns;
           let res, ns =
             Spans.time_ ~name:"refreeze.run" ~parent ~group:g ~track:tr (fun () -> W.run_refreeze task)
           in
           push run_ms ns;
           ignore
             (Spans.time ~name:"refreeze.split" ~parent ~group:g ~track:tr (fun parent ->
                  let p, ns =
                    Spans.time_ ~name:"packed.freeze" ~parent ~group:g ~track:tr (fun () ->
                        Core.Packed.of_tree (W.tree w))
                  in
                  push freeze_ms ns;
                  let base_data, ns =
                    Spans.time_ ~name:"csv.encode" ~parent ~group:g ~track:tr (fun () ->
                        Qc_data.Csv.to_string (W.table w))
                  in
                  push csv_enc_ms ns;
                  let tree_data, ns =
                    Spans.time_ ~name:"serial.encode" ~parent ~group:g ~track:tr (fun () ->
                        Core.Serial.to_packed_string p)
                  in
                  push ser_enc_ms ns;
                  let (), ns =
                    Spans.time_ ~name:"refreeze.commit" ~parent ~group:g ~track:tr (fun () ->
                        staged_commit shadow_dir ~base_data ~tree_data)
                  in
                  push commit_ms ns));
           let _, ns =
             Spans.time_ ~name:"refreeze.complete" ~parent ~group:g ~track:tr (fun () ->
                 W.complete_refreeze w task res)
           in
           push complete_ms ns;
           let _, ns =
             Spans.time_ ~name:"publish.poll" ~parent ~group:g ~track:tr (fun () -> W.committed_generation dir)
           in
           push poll_ms ns;
           let _, ns = Spans.time_ ~name:"publish.open" ~parent ~group:g ~track:tr (fun () -> W.open_dir dir) in
           push open_ms ns;
           ignore
             (Spans.time ~name:"publish.split" ~parent ~group:g ~track:tr (fun parent ->
                  let base_data = Util.read_all (Filename.concat dir "base.csv")
                  and tree_data = Util.read_all (Filename.concat dir "tree.qct") in
                  let _, ns =
                    Spans.time_ ~name:"csv.decode" ~parent ~group:g ~track:tr (fun () ->
                        Qc_data.Csv.of_string base_data)
                  in
                  push csv_dec_ms ns;
                  let _, ns =
                    Spans.time_ ~name:"check.bytes" ~parent ~group:g ~track:tr (fun () ->
                        Core.Check.check_bytes tree_data)
                  in
                  push check_ms ns;
                  let _, ns =
                    Spans.time_ ~name:"serial.decode" ~parent ~group:g ~track:tr (fun () ->
                        Core.Serial.of_string_any tree_data)
                  in
                  push ser_dec_ms ns))))
  in
  let n = Array.length rows in
  let b = max 1 batch_rows in
  let since = ref 0 and gens = ref 0 in
  let batch_no = ref 0 in
  let i = ref 0 in
  while !i < n do
    let k = min b (n - !i) in
    let batch = Array.to_list (Array.sub rows !i k) in
    incr batch_no;
    let g = !batch_no in
    ignore
      (Spans.time ~name:"batch" ~group:g ~track:tr (fun parent ->
           let _, ns =
             Spans.time_ ~name:"insert.batch" ~parent ~group:g ~track:tr (fun () -> W.insert_rows w batch)
           in
           push batch_ms ns;
           ignore
             (Spans.time ~name:"insert.split" ~parent ~group:g ~track:tr (fun parent ->
                  let (), ns =
                    Spans.time_ ~name:"wal.append" ~parent ~group:g ~track:tr (fun () ->
                        Qc_util.Durable.append sh_wal
                          (Core.Wal.encode { Core.Wal.generation = 0; op = Core.Wal.Insert; rows = batch }))
                  in
                  push wal_ms ns;
                  let _, ns =
                    Spans.time_ ~name:"maint.insert" ~parent ~group:g ~track:tr (fun () ->
                        let delta = Table.create schema in
                        List.iter (fun (vs, x) -> Table.add_row delta vs x) batch;
                        Core.Maintenance.insert_batch sh_tree ~base:sh_base ~delta)
                  in
                  push maint_ms ns;
                  let _, ns =
                    Spans.time_ ~name:"packed.repack" ~parent ~group:g ~track:tr (fun () ->
                        Core.Packed.of_tree sh_tree)
                  in
                  push repack_ms ns))));
    i := !i + k;
    since := !since + k;
    if !since >= inp.wl.refreeze_rows || (!i >= n && !gens = 0) then begin
      incr gens;
      generation !gens;
      since := 0
    end
  done;
  close_out sh_wal;
  let nb = !batch_no and ng = !gens in
  let per_batch = Printf.sprintf "mean per batch over %d batches of %d rows" nb b in
  let per_gen = Printf.sprintf "mean per generation over %d refreezes" ng in
  [
    m "ingest.parse_us_per_row" parse_us "us"
      (Printf.sprintf "Ingest.parse_line, mean over %d stream lines, batch-timed" n);
    m "insert.batch_ms" (meanf !batch_ms) "ms" (per_batch ^ ", Warehouse.insert_rows");
    m "wal.append_ms" (meanf !wal_ms) "ms" (per_batch ^ ", Wal.encode + Durable.append (one fsync)");
    m "maint.insert_ms" (meanf !maint_ms) "ms" (per_batch ^ ", Maintenance.insert_batch");
    m "packed.repack_ms" (meanf !repack_ms) "ms" (per_batch ^ ", whole-tree Packed.of_tree");
    m "refreeze.seal_ms" (meanf !seal_ms) "ms" (per_gen ^ ", Warehouse.seal");
    m "refreeze.run_ms" (meanf !run_ms) "ms" (per_gen ^ ", Warehouse.run_refreeze");
    m "packed.freeze_ms" (meanf !freeze_ms) "ms" (per_gen ^ ", Packed.of_tree");
    m "csv.encode_ms" (meanf !csv_enc_ms) "ms" (per_gen ^ ", Csv.to_string");
    m "serial.encode_ms" (meanf !ser_enc_ms) "ms" (per_gen ^ ", Serial.to_packed_string");
    m "refreeze.commit_ms" (meanf !commit_ms) "ms" (per_gen ^ ", fsync'd staged writes and renames");
    m "refreeze.complete_ms" (meanf !complete_ms) "ms" (per_gen ^ ", Warehouse.complete_refreeze");
    m "publish.poll_ms" (meanf !poll_ms) "ms" (per_gen ^ ", Warehouse.committed_generation");
    m "publish.open_ms" (meanf !open_ms) "ms" (per_gen ^ ", Warehouse.open_dir");
    m "csv.decode_ms" (meanf !csv_dec_ms) "ms" (per_gen ^ ", Csv.of_string of base.csv");
    m "check.bytes_ms" (meanf !check_ms) "ms" (per_gen ^ ", Check.check_bytes of tree.qct");
    m "serial.decode_ms" (meanf !ser_dec_ms) "ms" (per_gen ^ ", Serial.of_string_any of tree.qct");
  ]
