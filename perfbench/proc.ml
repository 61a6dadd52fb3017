(* Child processes of the benchmark: start, observe through /proc, stop.

   Every child is registered so [stop_all] (run at exit, also on errors)
   can terminate and reap it: the benchmark must never leave a server
   behind. *)

let live : int list ref = ref []

let forget pid = live := List.filter (fun p -> p <> pid) !live

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout stderr in
  live := pid :: !live;
  pid

(* Reap [pid] if it ends before [deadline] (monotonic seconds). *)
let wait_until pid deadline =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Util.now_s () > deadline then None
      else begin
        Unix.sleepf 0.002;
        go ()
      end
    | _, status ->
      forget pid;
      Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      forget pid;
      None
  in
  go ()

let stop ?(signal = Sys.sigterm) ?(grace_s = 20.0) pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  match wait_until pid (Util.now_s () +. grace_s) with
  | Some st -> Some st
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_until pid (Util.now_s () +. 5.0));
    None

let stop_all () = List.iter (fun pid -> ignore (stop ~grace_s:2.0 pid)) !live

let open_out_fd path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(* Run to completion, output to [log]; the exit code. *)
let run prog args ~log =
  let fd = open_out_fd log in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> spawn ~stdout:fd ~stderr:fd prog args)
  in
  match wait_until pid Float.infinity with Some (Unix.WEXITED c) -> c | Some _ | None -> -1

(* Fields of /proc/PID/stat after the parenthesised command name; field 14
   (utime) and 15 (stime) of proc(5) are at index 11 and 12 here. *)
let stat_fields pid =
  let s = Util.read_all (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  Array.of_list (String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)))

(* USER_HZ, the unit of /proc CPU times, is 100 on Linux. *)
let cpu_s pid =
  let f = stat_fields pid in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

let status_kb pid key =
  let lines = String.split_on_char '\n' (Util.read_all (Printf.sprintf "/proc/%d/status" pid)) in
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ k; v ] when String.equal k key -> (
        match String.split_on_char ' ' (String.trim v) with
        | n :: _ -> ( match int_of_string_opt n with Some x -> x | None -> acc)
        | [] -> acc)
      | _ -> acc)
    0 lines

(* Peak resident set (VmHWM) in MiB. *)
let hwm_mib pid = float_of_int (status_kb pid "VmHWM") /. 1024.0

let threads pid = Array.length (Sys.readdir (Printf.sprintf "/proc/%d/task" pid))

(* Machine-wide (all, steal) CPU ticks from /proc/stat: steal is time the
   hypervisor ran something else, the clearest sign of a noisy host. *)
let host_ticks () =
  let first = List.hd (String.split_on_char '\n' (Util.read_all "/proc/stat")) in
  let f = List.filter_map int_of_string_opt (String.split_on_char ' ' first) in
  (List.fold_left ( + ) 0 f, match List.nth_opt f 7 with Some s -> s | None -> 0)

(* User+system CPU seconds of children that have been reaped so far. *)
let reaped_children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime
