(* Small helpers shared by the benchmark modules: time, files, statistics. *)

let now_ns = Qc_util.Clock.now_ns

let now_s = Qc_util.Clock.now_s

let ns_to_ms ns = float_of_int ns /. 1e6

let ns_to_s ns = float_of_int ns /. 1e9

let mib bytes = float_of_int bytes /. 1048576.0

(* A growable int array: latencies and timestamps are pushed in the hot
   loop, so no list cells and no boxing. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n

  let to_array v = Array.sub v.a 0 v.n
end

(* Nearest-rank percentile of an ascending array; [nan] when empty. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let percentile a p = percentile_sorted (sorted a) p

let median a = percentile a 50.0

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let floats_of_ns f v = Array.map (fun ns -> f ns) (Vec.to_array v)

(* procfs files report length 0, so read until end of file. *)
let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let copy_file src dst = write_file dst (read_all src)

(* Copies the regular files of a warehouse directory (it has no subdirectories). *)
let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun n ->
      let s = Filename.concat src n in
      if not (Sys.is_directory s) then copy_file s (Filename.concat dst n))
    (Sys.readdir src)

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc n -> acc + dir_bytes (Filename.concat path n)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
