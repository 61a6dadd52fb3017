type t = {
  schema : Schema.t;
  mutable tuples : Cell.t array;
  mutable measures : float array;
  mutable len : int;
}

let create schema = { schema; tuples = [||]; measures = [||]; len = 0 }

let schema t = t.schema

let n_rows t = t.len

let n_dims t = Schema.n_dims t.schema

let grow t =
  if t.len >= Array.length t.tuples then begin
    let cap = max 16 (2 * Array.length t.tuples) in
    let tuples = Array.make cap [||] in
    let measures = Array.make cap 0.0 in
    Array.blit t.tuples 0 tuples 0 t.len;
    Array.blit t.measures 0 measures 0 t.len;
    t.tuples <- tuples;
    t.measures <- measures
  end

let add_encoded t cell m =
  if Array.length cell <> n_dims t then invalid_arg "Table.add_encoded: arity mismatch";
  if not (Cell.is_base cell) then
    invalid_arg "Table.add_encoded: base tuples may not contain *";
  grow t;
  t.tuples.(t.len) <- Cell.copy cell;
  t.measures.(t.len) <- m;
  t.len <- t.len + 1

let add_row t values m =
  let n = n_dims t in
  if List.length values <> n then invalid_arg "Table.add_row: arity mismatch";
  let cell = Array.make n 0 in
  List.iteri (fun i v -> cell.(i) <- Schema.encode_value t.schema i v) values;
  grow t;
  t.tuples.(t.len) <- cell;
  t.measures.(t.len) <- m;
  t.len <- t.len + 1

let tuple t i = t.tuples.(i)

let measure t i = t.measures.(i)

let append t delta =
  if delta.schema != t.schema then invalid_arg "Table.append: schemas differ";
  for i = 0 to delta.len - 1 do
    add_encoded t delta.tuples.(i) delta.measures.(i)
  done

let remove_rows t keep_out =
  let out = create t.schema in
  for i = 0 to t.len - 1 do
    if not (keep_out i) then add_encoded out t.tuples.(i) t.measures.(i)
  done;
  out

let sub t rows =
  let out = create t.schema in
  List.iter (fun i -> add_encoded out t.tuples.(i) t.measures.(i)) rows;
  out

let copy t = remove_rows t (fun _ -> false)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.tuples.(i) t.measures.(i)
  done

let find_row t cell =
  let rec go i =
    if i >= t.len then None
    else if Cell.equal t.tuples.(i) cell then Some i
    else go (i + 1)
  in
  go 0

let cover_agg t c =
  let acc = ref Agg.empty in
  for i = 0 to t.len - 1 do
    if Cell.covers c t.tuples.(i) then acc := Agg.merge !acc (Agg.of_measure t.measures.(i))
  done;
  !acc

let all_indices t = Array.init t.len (fun i -> i)

let index_buffers t =
  Array.init (n_dims t + 1) (fun depth -> if depth = 0 then all_indices t else Array.make t.len 0)

(* Groups of [dst.(lo) .. dst.(hi-1)], already ordered by [key], in order. *)
let scan_groups key dst ~lo ~hi f =
  let start = ref lo and v = ref (key dst.(lo)) in
  for i = lo + 1 to hi - 1 do
    let k = key dst.(i) in
    if k <> !v then begin
      f !v !start i;
      start := i;
      v := k
    end
  done;
  f !v !start hi

let partition t ~src ~dst ~lo ~hi ~dim f =
  let m = hi - lo in
  if m > 0 then begin
    let tuples = t.tuples in
    let key row = tuples.(row).(dim) in
    if m <= 16 then begin
      (* Insertion sort: stable, since a row moves only past larger keys. *)
      for i = lo to hi - 1 do
        let row = src.(i) in
        let k = key row in
        let j = ref (i - 1) in
        while !j >= lo && key dst.(!j) > k do
          dst.(!j + 1) <- dst.(!j);
          decr j
        done;
        dst.(!j + 1) <- row
      done;
      scan_groups key dst ~lo ~hi f
    end
    else begin
      let kmin = ref max_int and kmax = ref min_int in
      for i = lo to hi - 1 do
        let k = key src.(i) in
        if k < !kmin then kmin := k;
        if k > !kmax then kmax := k
      done;
      let kmin = !kmin and kmax = !kmax in
      (* [kmin + 4m] wraps negative only when [kmin] is near [max_int]; the
         comparison then fails and the slice takes the comparison sort. *)
      if kmax <= kmin + (4 * m) then begin
        (* Counting sort (BUC's CountingSort): after the prefix sums,
           [ends.(k)] is where key [kmin + k] starts; after the scatter, where
           it ends. *)
        let span = kmax - kmin + 1 in
        let ends = Array.make (span + 1) 0 in
        for i = lo to hi - 1 do
          let k = key src.(i) - kmin + 1 in
          ends.(k) <- ends.(k) + 1
        done;
        ends.(0) <- lo;
        for k = 1 to span do
          ends.(k) <- ends.(k) + ends.(k - 1)
        done;
        for i = lo to hi - 1 do
          let row = src.(i) in
          let k = key row - kmin in
          dst.(ends.(k)) <- row;
          ends.(k) <- ends.(k) + 1
        done;
        let start = ref lo in
        for k = 0 to span - 1 do
          let stop = ends.(k) in
          if stop > !start then begin
            f (kmin + k) !start stop;
            start := stop
          end
        done
      end
      else begin
        let slice = Array.sub src lo m in
        Array.stable_sort (fun a b -> Int.compare (key a) (key b)) slice;
        Array.blit slice 0 dst lo m;
        scan_groups key dst ~lo ~hi f
      end
    end
  end

(* The fold [cover_agg] performs, one [Agg.merge acc (Agg.of_measure m)] per
   row in slice order, kept in local variables. *)
let agg_of_range t idx ~lo ~hi =
  if hi <= lo then Agg.empty
  else begin
    let measures = t.measures in
    let sum = ref 0.0 and mn = ref infinity and mx = ref neg_infinity in
    for i = lo to hi - 1 do
      let m = measures.(idx.(i)) in
      sum := !sum +. m;
      mn := Float.min !mn m;
      mx := Float.max !mx m
    done;
    { Agg.count = hi - lo; sum = !sum; min = !mn; max = !mx }
  end
