open Qc_cube
module Metrics = Qc_util.Metrics
module Trace = Qc_util.Trace

type visit = {
  id : int;
  lb : Cell.t;
  ub : Cell.t;
  child : int;
  agg : Agg.t;
}

let log = Logs.Src.create "qc.dfs" ~doc:"QC-tree DFS class discovery"

module Log = (val Logs.src_log log)

(* Work counters of Algorithm 1's first phase: how many cells the search
   visits, how many sub-partitions it opens, how many [*] dimensions the
   upper-bound jump fills, and how often the bound-jump prune rule cuts a
   redundant expansion (the knob Figure 12(d) turns on). *)
let m_visits = Metrics.counter "dfs.visits"

let m_partitions = Metrics.counter "dfs.partitions_opened"

let m_jumps = Metrics.counter "dfs.upper_bound_jumps"

let m_prunes = Metrics.counter "dfs.prunes"

let visit table f =
  let n = Table.n_rows table in
  let d = Table.n_dims table in
  Trace.with_span ~cat:"dfs" ~args:[ ("rows", Trace.Int n); ("dims", Trace.Int d) ] "dfs.visit"
  @@ fun () ->
  if n > 0 then begin
    let bufs = Table.index_buffers table in
    let counter = ref 0 in
    (* [c] is owned by this call; [bufs.(k + 1).(lo) .. bufs.(k + 1).(hi-1)]
       is its partition, in ascending row order; [k] is the dimension
       expanded to reach [c] (-1 at the root).  Each expansion fills a
       dimension after [k], so [bufs.(k + 1)] is this call's buffer and the
       partitions it opens go to the next one. *)
    let rec dfs c lo hi k chdid =
      Metrics.incr m_visits;
      let idx = bufs.(k + 1) in
      let agg = Table.agg_of_range table idx ~lo ~hi in
      let ub = Cell.copy c in
      for j = 0 to d - 1 do
        if ub.(j) = Cell.all then begin
          let v0 = (Table.tuple table idx.(lo)).(j) in
          let rec shared i = i >= hi || ((Table.tuple table idx.(i)).(j) = v0 && shared (i + 1)) in
          if shared (lo + 1) then begin
            ub.(j) <- v0;
            Metrics.incr m_jumps
          end
        end
      done;
      let id = !counter in
      incr counter;
      f { id; lb = Cell.copy c; ub = Cell.copy ub; child = chdid; agg };
      (* Prune: if the jump filled a dimension before the expansion
         dimension, this bound was already examined from that dimension. *)
      let rec filled_before j = j < k && ((c.(j) = Cell.all && ub.(j) <> Cell.all) || filled_before (j + 1)) in
      if filled_before 0 then Metrics.incr m_prunes
      else
        for j = k + 1 to d - 1 do
          if ub.(j) = Cell.all then
            Table.partition table ~src:idx ~dst:bufs.(j + 1) ~lo ~hi ~dim:j (fun v glo ghi ->
                Metrics.incr m_partitions;
                let c' = Cell.copy ub in
                c'.(j) <- v;
                dfs c' glo ghi j id)
        done
    in
    dfs (Cell.make_all d) 0 n (-1) (-1);
    Trace.add_attr "cells" (Trace.Int !counter);
    Log.debug (fun m -> m "dfs over %d rows visited %d cells" n !counter)
  end

let run table =
  let acc = ref [] in
  visit table (fun v ->
      acc := { Temp_class.id = v.id; lb = v.lb; ub = v.ub; child = v.child; agg = v.agg } :: !acc);
  List.rev !acc
