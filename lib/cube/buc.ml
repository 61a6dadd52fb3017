let compute ?(min_support = 1) table emit =
  let n = Table.n_rows table in
  let d = Table.n_dims table in
  if n > 0 then begin
    let bufs = Table.index_buffers table in
    let cell = Cell.make_all d in
    (* Invariant: [cell] describes the current group-by; rows
       [bufs.(dim).(lo) .. bufs.(dim).(hi-1)] are exactly its cover set, in
       ascending row order.  The group-by on dimension [j] goes to
       [bufs.(j + 1)], which no deeper call writes. *)
    let rec aux lo hi dim =
      let idx = bufs.(dim) in
      emit (Cell.copy cell) (Table.agg_of_range table idx ~lo ~hi);
      for j = dim to d - 1 do
        Table.partition table ~src:idx ~dst:bufs.(j + 1) ~lo ~hi ~dim:j (fun v glo ghi ->
            if ghi - glo >= min_support then begin
              cell.(j) <- v;
              aux glo ghi (j + 1);
              cell.(j) <- Cell.all
            end)
      done
    in
    if n >= min_support then aux 0 n 0
  end

let count_cells ?min_support table =
  let k = ref 0 in
  compute ?min_support table (fun _ _ -> incr k);
  !k

let cube_bytes ?min_support table =
  let cells = count_cells ?min_support table in
  Qc_util.Size.bytes_of_cells ~dims:(Table.n_dims table) ~cells
