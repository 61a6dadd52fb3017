(* The qct serve daemon.  See server.mli for the architecture overview.

   Domain discipline (this file is on qclint's domain allowlist): one
   accept/admission domain, [workers] select-loop domains, one generation
   watcher.  All are joined by [stop]; workers return their drained
   Qc_util.Metrics deltas, absorbed in worker order so metric totals are
   deterministic.  Cross-domain state is limited to Atomics, the
   Snapshot server, the pending-connection Bq and the Mutex-protected
   result cache. *)

module E = Qc_core.Engine
module R = Qc_core.Request
module Packed = Qc_core.Packed
module W = Qc_warehouse.Warehouse
module I = Qc_warehouse.Ingest
module Metrics = Qc_util.Metrics
module Jx = Qc_util.Jsonx
module Failpoint = Qc_util.Failpoint

let src = Logs.Src.create "qc.serve" ~doc:"The qct serve daemon"

module Log = (val Logs.src_log src)

(* Registered up front so `qct stats --prom` exposes every serving
   instrument (at zero) even in processes that never served. *)
let m_requests = Metrics.counter "serve.requests"

let m_hits = Metrics.counter "serve.cache.hits"

let m_misses = Metrics.counter "serve.cache.misses"

let m_evictions = Metrics.counter "serve.cache.evictions"

let m_overloaded = Metrics.counter "serve.overloaded"

let g_clients = Metrics.gauge "serve.clients"

let fp_respond = "serve.respond"

let () = Failpoint.register fp_respond

type config = {
  host : string;
  port : int;
  workers : int;
  max_clients : int;
  max_pending : int;
  cache_capacity : int;
  poll_interval_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 1;
    max_clients = 256;
    max_pending = 64;
    cache_capacity = 1024;
    poll_interval_s = 0.25;
  }

(* ---------- the generation-keyed LRU result cache ----------

   Maps (generation, canonical request) to the serialized response line.
   Classic intrusive doubly-linked LRU behind one mutex; the protected
   section is a hash probe and four pointer swaps, far cheaper than the
   query it saves. *)
module Lru = struct
  type entry = {
    e_key : string;
    mutable e_val : string;
    mutable e_prev : entry;
    mutable e_next : entry;
  }

  type t = {
    cap : int;
    tbl : (string, entry) Hashtbl.t;
    sentinel : entry;  (* circular: sentinel.e_next is most recent *)
    lock : Mutex.t;
  }

  let create cap =
    let rec s = { e_key = ""; e_val = ""; e_prev = s; e_next = s } in
    { cap; tbl = Hashtbl.create (2 * cap); sentinel = s; lock = Mutex.create () }

  let unlink e =
    e.e_prev.e_next <- e.e_next;
    e.e_next.e_prev <- e.e_prev

  let push_front t e =
    e.e_next <- t.sentinel.e_next;
    e.e_prev <- t.sentinel;
    t.sentinel.e_next.e_prev <- e;
    t.sentinel.e_next <- e

  let find t key =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | None -> None
        | Some e ->
          unlink e;
          push_front t e;
          Some e.e_val)

  (* [true] when an old entry was evicted to make room. *)
  let put t key value =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          e.e_val <- value;
          unlink e;
          push_front t e;
          false
        | None ->
          let rec e = { e_key = key; e_val = value; e_prev = e; e_next = e } in
          Hashtbl.replace t.tbl key e;
          push_front t e;
          if Hashtbl.length t.tbl > t.cap then begin
            let victim = t.sentinel.e_prev in
            unlink victim;
            Hashtbl.remove t.tbl victim.e_key;
            true
          end
          else false)
end

(* ---------- server state ---------- *)

type worker = {
  w_inbox : Unix.file_descr list ref;
  w_lock : Mutex.t;
  mutable w_domain : Metrics.delta Domain.t option;
}

type t = {
  cfg : config;
  dir : string;
  listen_fd : Unix.file_descr;
  t_port : int;
  snap : I.Snapshot.server;
  cache : Lru.t option;
  pending : Unix.file_descr I.Bq.t;
  stop_flag : bool Atomic.t;
  finished : bool Atomic.t;
  active : int Atomic.t;
  served : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  workers : worker array;
  mutable accept_domain : unit Domain.t option;
  mutable watcher_domain : unit Domain.t option;
}

let port t = t.t_port

let generation t = (I.Snapshot.current t.snap).I.Snapshot.generation

let stopped t = Atomic.get t.stop_flag

let stats t =
  let snap = I.Snapshot.current t.snap in
  {
    R.sv_generation = snap.I.Snapshot.generation;
    sv_classes = Packed.n_classes snap.I.Snapshot.packed;
    sv_nodes = Packed.n_nodes snap.I.Snapshot.packed;
    sv_clients = Atomic.get t.active;
    sv_served = Atomic.get t.served;
    sv_cache_hits = Atomic.get t.hits;
    sv_cache_misses = Atomic.get t.misses;
    sv_cache_evictions = Atomic.get t.evictions;
  }

(* ---------- request handling ---------- *)

let run_query packed q = E.run_one (module E.Packed_backend) packed q

let describe_line snap =
  Printf.sprintf "generation %d | %s" snap.I.Snapshot.generation
    (E.Packed_backend.describe snap.I.Snapshot.packed)

let answer_request t snap req =
  let packed = snap.I.Snapshot.packed in
  match req with
  | R.Query q -> R.Answer (run_query packed q)
  | R.Batch qs -> R.Answers (Array.map (run_query packed) qs)
  | R.Stats -> R.Stats_reply (stats t)
  | R.Describe -> R.Describe_reply (describe_line snap)

(* One request line to one response line.  Single-query requests go
   through the LRU: the key embeds the generation stamp, so a refreeze
   invalidates the whole cached generation implicitly. *)
let serve_line t line =
  let snap = I.Snapshot.current t.snap in
  let schema = Packed.schema snap.I.Snapshot.packed in
  Metrics.incr m_requests;
  Atomic.incr t.served;
  match R.of_wire schema line with
  | Error e -> Jx.to_string (R.response_to_json schema (R.Answer (Error e)))
  | Ok (R.Query _ as req) when Option.is_some t.cache ->
    let cache = Option.get t.cache in
    let key =
      Printf.sprintf "%d\x00%s" snap.I.Snapshot.generation
        (Jx.to_string (R.request_to_json schema req))
    in
    (match Lru.find cache key with
    | Some cached ->
      Metrics.incr m_hits;
      Atomic.incr t.hits;
      cached
    | None ->
      Metrics.incr m_misses;
      Atomic.incr t.misses;
      let resp = Jx.to_string (R.response_to_json schema (answer_request t snap req)) in
      if Lru.put cache key resp then begin
        Metrics.incr m_evictions;
        Atomic.incr t.evictions
      end;
      resp)
  | Ok req -> Jx.to_string (R.response_to_json schema (answer_request t snap req))

(* ---------- worker event loop ---------- *)

type client = { c_fd : Unix.file_descr; c_inbuf : Buffer.t; c_oc : out_channel }

let close_client t c =
  (* close_out flushes, which can fail on a dead peer — the connection is
     going away either way. *)
  (try close_out c.c_oc with Sys_error _ -> ());
  Atomic.decr t.active;
  Metrics.set_gauge g_clients (Atomic.get t.active)

(* Write one whole response line with a single flush; the failpoint
   before it is what the crash test arms — a kill here loses the entire
   line, never a prefix of it. *)
let write_response c resp =
  Failpoint.hit fp_respond;
  output_string c.c_oc resp;
  output_char c.c_oc '\n';
  flush c.c_oc

(* Consume every complete line in the client's buffer; returns [false]
   when the client must be closed (write failure). *)
let drain_lines t c =
  let rec go () =
    let s = Buffer.contents c.c_inbuf in
    match String.index_opt s '\n' with
    | None -> true
    | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear c.c_inbuf;
      Buffer.add_substring c.c_inbuf s (i + 1) (String.length s - i - 1);
      let line = String.trim line in
      if String.length line = 0 || line.[0] = '#' then go ()
      else (
        match write_response c (serve_line t line) with
        | () -> go ()
        | exception Sys_error _ -> false
        | exception Unix.Unix_error (_, _, _) -> false)
  in
  go ()

let worker_loop t w =
  let read_buf = Bytes.create 65536 in
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 64 in
  let adopt fd =
    Hashtbl.replace clients fd
      { c_fd = fd; c_inbuf = Buffer.create 256; c_oc = Unix.out_channel_of_descr fd }
  in
  let close_one c =
    Hashtbl.remove clients c.c_fd;
    close_client t c
  in
  while not (Atomic.get t.stop_flag) do
    Mutex.protect w.w_lock (fun () ->
        let incoming = !(w.w_inbox) in
        w.w_inbox := [];
        incoming)
    |> List.iter adopt;
    let readable =
      match Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] with
      | [] ->
        (* nothing to watch yet; nap until the accept loop hands us work *)
        Unix.sleepf 0.02;
        []
      | fds -> (
        match Unix.select fds [] [] 0.1 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> [])
    in
    List.iter
      (fun fd ->
        match Hashtbl.find_opt clients fd with
        | None -> ()
        | Some c -> (
          match Unix.read fd read_buf 0 (Bytes.length read_buf) with
          | 0 -> close_one c
          | n ->
            Buffer.add_subbytes c.c_inbuf read_buf 0 n;
            if not (drain_lines t c) then close_one c
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
            close_one c
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
      readable
  done;
  Hashtbl.iter (fun _ c -> close_client t c) clients;
  Metrics.drain ()

(* ---------- accept / admission loop ---------- *)

let reject_overloaded t fd =
  let snap = I.Snapshot.current t.snap in
  let schema = Packed.schema snap.I.Snapshot.packed in
  let resp =
    Jx.to_string
      (R.response_to_json schema
         (R.Overloaded { pending = I.Bq.depth t.pending; max_pending = t.cfg.max_pending }))
  in
  Metrics.incr m_overloaded;
  let oc = Unix.out_channel_of_descr fd in
  (try
     output_string oc resp;
     output_char oc '\n';
     flush oc
   with
  | Sys_error _ -> ()
  | Unix.Unix_error (_, _, _) -> ());
  try close_out oc with Sys_error _ -> ()

let accept_loop t =
  let next = ref 0 in
  let assign fd =
    let w = t.workers.(!next mod Array.length t.workers) in
    incr next;
    Mutex.protect w.w_lock (fun () -> w.w_inbox := fd :: !(w.w_inbox));
    Atomic.incr t.active;
    Metrics.set_gauge g_clients (Atomic.get t.active)
  in
  while not (Atomic.get t.stop_flag) do
    (* admit queued connections first (FIFO), then poll for new ones *)
    while
      Atomic.get t.active < t.cfg.max_clients
      && I.Bq.depth t.pending > 0
      &&
      (match I.Bq.pop_many t.pending ~max:1 ~timeout_s:0.0 with
      | [ fd ] ->
        assign fd;
        true
      | _ -> false)
    do
      ()
    done;
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
        if Atomic.get t.active < t.cfg.max_clients && I.Bq.depth t.pending = 0 then assign fd
        else if not (I.Bq.push t.pending fd) then reject_overloaded t fd
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED | Unix.EBADF), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  done;
  (* drain the pending queue with honest refusals *)
  I.Bq.close t.pending;
  List.iter (reject_overloaded t) (I.Bq.pop_many t.pending ~max:max_int ~timeout_s:0.0)

(* ---------- generation watcher ---------- *)

(* Polls the committed generation mark and reopens the warehouse only on
   advance.  The poll is not cheap: [committed_generation] reads all of
   [base.csv] and checks its CRC against the manifest.  A reopen racing a
   writer's commit can fail transiently — that is the retry-next-tick
   branch, not an error. *)
let watcher_loop t =
  while not (Atomic.get t.stop_flag) do
    Unix.sleepf t.cfg.poll_interval_s;
    if not (Atomic.get t.stop_flag) then begin
      let committed =
        match W.committed_generation t.dir with
        | g -> g
        | exception W.Error _ -> -1
        | exception Sys_error _ -> -1
      in
      if committed > generation t then begin
        match W.open_dir t.dir with
        | w ->
          let g = W.checkpoint_generation w in
          if I.Snapshot.publish t.snap { I.Snapshot.generation = g; packed = W.packed w }
          then Log.info (fun m -> m "now serving generation %d" g)
        | exception W.Error e ->
          Log.debug (fun m -> m "reopen racing a commit (%s); retrying" (W.error_to_string e))
        | exception Sys_error reason ->
          Log.debug (fun m -> m "reopen racing a commit (%s); retrying" reason)
      end
    end
  done

(* ---------- lifecycle ---------- *)

let start ?(config = default_config) dir =
  if config.workers < 1 then invalid_arg "Server.start: workers must be positive";
  if config.max_clients < 1 then invalid_arg "Server.start: max_clients must be positive";
  if config.max_pending < 1 then invalid_arg "Server.start: max_pending must be positive";
  (* a client closing mid-write must surface as EPIPE, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let w = W.open_dir dir in
  let snap =
    I.Snapshot.make ~generation:(W.checkpoint_generation w) (W.packed w)
  in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen listen_fd 128;
      let t_port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> config.port
      in
      {
        cfg = config;
        dir;
        listen_fd;
        t_port;
        snap;
        cache = (if config.cache_capacity > 0 then Some (Lru.create config.cache_capacity) else None);
        pending = I.Bq.create config.max_pending;
        stop_flag = Atomic.make false;
        finished = Atomic.make false;
        active = Atomic.make 0;
        served = Atomic.make 0;
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        evictions = Atomic.make 0;
        workers =
          Array.init config.workers (fun _ ->
              { w_inbox = ref []; w_lock = Mutex.create (); w_domain = None });
        accept_domain = None;
        watcher_domain = None;
      }
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
      raise e
  in
  Array.iter (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_loop t w))) t.workers;
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t.watcher_domain <- Some (Domain.spawn (fun () -> watcher_loop t));
  Log.info (fun m ->
      m "serving %s on %s:%d (generation %d, %d worker%s)" dir config.host t.t_port
        (generation t) config.workers
        (if config.workers = 1 then "" else "s"));
  t

let request_stop t = Atomic.set t.stop_flag true

let stop t =
  request_stop t;
  if not (Atomic.exchange t.finished true) then begin
    Option.iter Domain.join t.accept_domain;
    Option.iter Domain.join t.watcher_domain;
    (* absorb worker metric deltas in worker order: deterministic totals *)
    Array.iter (fun w -> Option.iter (fun d -> Metrics.absorb (Domain.join d)) w.w_domain) t.workers;
    try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ()
  end;
  stats t
