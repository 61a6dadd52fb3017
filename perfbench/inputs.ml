(* Workloads and the inputs generated for them from the seed.

   Everything the system under test receives is made here from
   [Qc_data.Synthetic] / [Qc_data.Weather] and the seed: the base CSV, the
   row stream piped into [qct ingest], and the request lines sent to
   [qct serve].  The same seed gives the same inputs. *)

open Qc_cube
module R = Qc_core.Request
module Rng = Qc_util.Rng

type base =
  | Weather of { rows : int; scale : float }
  | Synthetic of { rows : int; dims : int; card : int; zipf : float }

type mix =
  | Olap  (** distinct requests, 94% point, 5% range, 1% iceberg: the result cache misses *)
  | Hot  (** a few distinct lines drawn Zipf(1.2): every one fits the result cache *)
  | Stream_read  (** uniform points, an apex probe every 10th request, a few ranges and icebergs *)

type workload = {
  name : string;
  base : base;
  mix : mix;
  conns : int;  (** read connections *)
  depth : int;  (** requests written at once per connection (a pipelined burst) *)
  stream_rate : float;  (** rows per second written to [qct ingest] *)
  stream_rows : int option;
      (** [Some n]: n rows streamed in a load phase before the reads;
          [None]: rate × seconds rows streamed during the reads *)
  refreeze_rows : int;
      (** [qct ingest --refreeze-rows]; [n] for a load phase, which then
          publishes one generation *)
  range_values : int;  (** values per range dimension; 0 = full cardinality *)
  points : int;  (** distinct point lines *)
  ranges : int;  (** distinct range lines *)
  icebergs : int;  (** distinct iceberg lines *)
}

let workloads ~toy =
  let synth rows =
    if toy then Synthetic { rows = 1500; dims = 6; card = 20; zipf = 2.0 }
    else Synthetic { rows; dims = 6; card = 100; zipf = 2.0 }
  in
  let size full small = if toy then small else full in
  [
    {
      name = "olap-read";
      base = (if toy then Weather { rows = 1500; scale = 0.02 } else Weather { rows = 30_000; scale = 0.05 });
      mix = Olap;
      conns = 1;
      depth = 1;
      stream_rate = size 150.0 120.0;
      stream_rows = Some (size 600 60);
      refreeze_rows = size 600 60;
      range_values = 0;
      points = size 8192 512;
      ranges = size 2048 128;
      icebergs = size 64 8;
    };
    {
      name = "hot-read";
      base = synth 20_000;
      mix = Hot;
      conns = 2;
      depth = 16;
      stream_rate = size 500.0 120.0;
      stream_rows = Some (size 2000 60);
      refreeze_rows = size 2000 60;
      range_values = 3;
      points = size 240 60;
      ranges = 12;
      icebergs = 4;
    };
    {
      name = "ingest-read";
      base = synth 20_000;
      mix = Stream_read;
      conns = 1;
      depth = 1;
      stream_rate = size 500.0 120.0;
      stream_rows = None;
      refreeze_rows = size 1000 30;
      range_values = 3;
      points = size 8192 512;
      ranges = size 512 64;
      icebergs = size 256 16;
    };
  ]

type kind = Point | Range | Iceberg

let kind_name = function Point -> "point" | Range -> "range" | Iceberg -> "iceberg"

type t = {
  wl : workload;
  base_csv : string;  (** path of the generated base table *)
  base_rows : int;
  stream : string array;  (** [v1,...,vd,measure] lines, without newline *)
  apex : string;  (** [point *,...,*]: its COUNT says how many rows are served *)
  points : string array;
  ranges : string array;
  icebergs : string array;
  next : int -> string * kind;  (** the request with this sequence number *)
}

let line schema q =
  match R.to_line schema (R.Query q) with Some l -> l | None -> invalid_arg "Inputs.line"

(* Distinct lines from a generator, in generation order. *)
let distinct n gen =
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] and left = ref n and tries = ref 0 in
  while !left > 0 && !tries < 100 * n do
    incr tries;
    let l = gen () in
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      out := l :: !out;
      decr left
    end
  done;
  Array.of_list (List.rev !out)

let row_line schema cell m =
  let values = Array.to_list (Array.mapi (fun i c -> Schema.decode_value schema i c) cell) in
  String.concat "," values ^ "," ^ Printf.sprintf "%.17g" m

let make wl ~seed ~seconds ~dir =
  let gen_table, delta_of =
    match wl.base with
    | Weather { rows; scale } ->
      let spec = { Qc_data.Weather.rows; scale; seed } in
      let t = Qc_data.Weather.generate spec in
      (t, fun k -> Qc_data.Weather.generate_delta spec t k)
    | Synthetic { rows; dims; card; zipf } ->
      let spec = { Qc_data.Synthetic.dims; cardinality = card; rows; zipf; seed } in
      let t = Qc_data.Synthetic.generate spec in
      (t, fun k -> Qc_data.Synthetic.generate_delta spec t k)
  in
  let csv = Qc_data.Csv.to_string gen_table in
  let base_csv = Filename.concat dir "base.csv" in
  Util.write_file base_csv csv;
  (* request lines name values through the dictionaries qct builds from
     the CSV, so draw them from the table read back the same way *)
  let loaded = Qc_data.Csv.of_string csv in
  let schema = Table.schema loaded in
  let n_dims = Schema.n_dims schema and n_rows = Table.n_rows loaded in
  let n_stream =
    match wl.stream_rows with
    | Some n -> n
    | None -> int_of_float (wl.stream_rate *. seconds)
  in
  let delta = delta_of n_stream in
  let stream =
    Array.init (Table.n_rows delta) (fun i ->
        row_line (Table.schema delta) (Table.tuple delta i) (Table.measure delta i))
  in
  (* The shape of the k-th query (which dimensions are starred, ranged or
     fixed) comes from a generator seeded by k alone, so every seed sends
     the same mix of shapes; the seed picks the anchor rows and values.
     This keeps the cost mix, and so the figures, comparable across
     seeds. *)
  let rng = Rng.create ((seed * 7919) + 17) in
  let shape_no = ref 0 in
  let shape () =
    incr shape_no;
    Rng.create (!shape_no * 104729)
  in
  let point () =
    let sh = shape () in
    let anchor = Table.tuple loaded (Rng.int rng n_rows) in
    line schema (R.Point (Array.map (fun c -> if Rng.bool sh then Cell.all else c) anchor))
  in
  let points = distinct wl.points point in
  (* Figure 13(d): 1-3 range dimensions over [range_values] values (all
     of the dimension's values when 0); the others star or fixed *)
  let range () =
    let sh = shape () in
    let n_ranged = 1 + Rng.int sh 3 in
    let dims = Array.init n_dims Fun.id in
    Rng.shuffle sh dims;
    let ranged = Array.sub dims 0 n_ranged in
    let anchor = Table.tuple loaded (Rng.int rng n_rows) in
    let r =
      Array.init n_dims (fun i ->
          let card = Schema.cardinality schema i in
          if Array.exists (Int.equal i) ranged then
            if wl.range_values = 0 || wl.range_values >= card then Array.init card (fun v -> v + 1)
            else begin
              let vs = ref [ anchor.(i) ] in
              while List.length !vs < wl.range_values do
                let v = 1 + Rng.int rng card in
                if not (List.mem v !vs) then vs := v :: !vs
              done;
              Array.of_list (List.sort Int.compare !vs)
            end
          else if Rng.bool sh then [||]
          else [| anchor.(i) |])
    in
    line schema (R.Range r)
  in
  let ranges = distinct wl.ranges range in
  (* distinct thresholds keep every iceberg a distinct cache key *)
  let icebergs =
    Array.init wl.icebergs (fun k ->
        line schema
          (R.Iceberg
             { func = Agg.Count; threshold = (0.05 *. float_of_int n_rows) +. (0.001 *. float_of_int k) }))
  in
  let n_icebergs = Array.length icebergs in
  let apex = line schema (R.Point (Cell.make_all n_dims)) in
  let next =
    match wl.mix with
    | Olap ->
      (* each kind cycles through its own pool, so a line recurs only
         after more than the cache's 1024 other requests *)
      fun seq ->
        if seq mod 100 = 0 then (icebergs.(seq / 100 mod n_icebergs), Iceberg)
        else if seq mod 20 = 10 then (ranges.(seq / 20 mod Array.length ranges), Range)
        else (points.(seq mod Array.length points), Point)
    | Hot ->
      let zp = Qc_data.Zipf.create ~s:1.2 (Array.length points)
      and zr = Qc_data.Zipf.create ~s:1.2 (Array.length ranges)
      and zi = Qc_data.Zipf.create ~s:1.2 (Array.length icebergs) in
      let draw = Rng.create (seed + 2) in
      fun seq ->
        if seq mod 100 = 0 then (icebergs.(Qc_data.Zipf.sample zi draw - 1), Iceberg)
        else if seq mod 20 = 10 then (ranges.(Qc_data.Zipf.sample zr draw - 1), Range)
        else (points.(Qc_data.Zipf.sample zp draw - 1), Point)
    | Stream_read ->
      let draw = Rng.create (seed + 3) in
      fun seq ->
        if seq mod 10 = 0 then (apex, Point)
        else if seq mod 1000 = 25 then (icebergs.(seq / 1000 mod n_icebergs), Iceberg)
        else if seq mod 50 = 5 then (ranges.(seq / 50 mod Array.length ranges), Range)
        else (points.(Rng.int draw (Array.length points)), Point)
  in
  { wl; base_csv; base_rows = n_rows; stream; apex; points; ranges; icebergs; next }

(* Every distinct line the reads can send (the expected-answer set). *)
let all_lines t = Array.concat [ [| t.apex |]; t.points; t.ranges; t.icebergs ]
