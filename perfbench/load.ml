(* The single-threaded client loop: closed-loop (optionally pipelined)
   reads over a few connections, multiplexed with [select], plus an
   optional paced row writer feeding [qct ingest]'s stdin. *)

module K = Inputs

(* ---------- the paced row writer ---------- *)

type writer = {
  w_fd : Unix.file_descr;  (** non-blocking write end of ingest's stdin *)
  rows : string array;
  mutable t0 : int;  (** when row 0 is due *)
  period_ns : float;
  mutable next : int;  (** next row to start writing *)
  written : int array;  (** when each row's last byte reached the pipe (ns) *)
  mutable partial : string;  (** unwritten tail of row [next - 1] *)
  mutable late_ns : int;  (** worst lateness against the schedule *)
}

let writer fd rows ~rate ~t0 =
  {
    w_fd = fd;
    rows;
    t0;
    period_ns = 1e9 /. rate;
    next = 0;
    written = Array.make (Array.length rows) 0;
    partial = "";
    late_ns = 0;
  }

let due w i = w.t0 + int_of_float (float_of_int i *. w.period_ns)

let writer_done w = w.next >= Array.length w.rows && String.length w.partial = 0

let rows_written w = if String.length w.partial > 0 then w.next - 1 else w.next

(* Write every row that is due.  A full pipe leaves the rest for the next
   turn; the delay shows up as lateness. *)
let pump w =
  let go = ref true in
  while !go do
    if String.length w.partial > 0 then begin
      match Unix.single_write_substring w.w_fd w.partial 0 (String.length w.partial) with
      | n when n = String.length w.partial ->
        w.partial <- "";
        w.written.(w.next - 1) <- Util.now_ns ()
      | n ->
        w.partial <- String.sub w.partial n (String.length w.partial - n);
        go := false
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> go := false
    end
    else if w.next < Array.length w.rows && due w w.next <= Util.now_ns () then begin
      w.late_ns <- max w.late_ns (Util.now_ns () - due w w.next);
      w.partial <- w.rows.(w.next) ^ "\n";
      w.next <- w.next + 1
    end
    else go := false
  done

(* ---------- visibility of streamed rows, from apex probes ---------- *)

type visibility = {
  base : int;
  first_seen : int array;  (** when row i was first counted by a served answer (ns), 0 = never *)
  mutable visible : int;
  mutable last_count : int;
  mutable regressions : int;  (** apex COUNT went down *)
  mutable overshoots : int;  (** apex COUNT above base + rows written *)
  mutable steps : int;  (** times the count advanced: generations seen *)
}

let visibility ~base ~rows =
  {
    base;
    first_seen = Array.make rows 0;
    visible = 0;
    last_count = base;
    regressions = 0;
    overshoots = 0;
    steps = 0;
  }

let observe v ~count ~now ~written =
  if count < v.last_count then v.regressions <- v.regressions + 1
  else begin
    let k = count - v.base in
    if k > written then v.overshoots <- v.overshoots + 1;
    let k = min k (Array.length v.first_seen) in
    if k > v.visible then begin
      for j = v.visible to k - 1 do
        v.first_seen.(j) <- now
      done;
      Spans.add ~name:"generation.visible" ~group:v.steps ~track:Spans.stream_track now now;
      v.visible <- k;
      v.steps <- v.steps + 1
    end;
    v.last_count <- count
  end

(* ---------- the read loop ---------- *)

type tally = {
  lat : Util.Vec.t array;  (** latency ns, indexed by kind: point, range, iceberg *)
  fin : Util.Vec.t array;  (** completion time ns, parallel to [lat] *)
  mutable sent : int;
  mutable completed : int;
  mutable errors : int;  (** typed errors, overloaded, protocol errors *)
  mutable wrong : int;  (** answers that differ from the expected line *)
  mutable closed_early : int;  (** requests lost to a closed connection *)
}

let tally () =
  {
    lat = Array.init 3 (fun _ -> Util.Vec.create ());
    fin = Array.init 3 (fun _ -> Util.Vec.create ());
    sent = 0;
    completed = 0;
    errors = 0;
    wrong = 0;
    closed_early = 0;
  }

let kind_index = function K.Point -> 0 | K.Range -> 1 | K.Iceberg -> 2

let failures t = t.errors + t.wrong + t.closed_early

(* The timed phase [t0, t0 + span) cut into [windows] equal windows; each
   statistic is computed per window and the median over windows is
   reported, so a burst of interference from outside the benchmark moves
   at most a minority of windows. *)
let window_of ~t0 ~span_ns ~windows t =
  let w = (t - t0) * windows / span_ns in
  if t < t0 || w >= windows then -1 else w

(* Median over windows of [stat] applied to the latencies (ms) of the
   given kinds completed in each window; empty windows are skipped. *)
let windowed t ~t0 ~span_ns ~windows ~kinds stat =
  let per = Array.make windows [] in
  List.iter
    (fun k ->
      let i = kind_index k in
      let lat = Util.Vec.to_array t.lat.(i) and fin = Util.Vec.to_array t.fin.(i) in
      Array.iteri
        (fun j f ->
          let w = window_of ~t0 ~span_ns ~windows f in
          if w >= 0 then per.(w) <- Util.ns_to_ms lat.(j) :: per.(w))
        fin)
    kinds;
  let stats =
    Array.to_list per
    |> List.filter_map (function [] -> None | l -> Some (stat (Array.of_list l)))
  in
  (Util.median (Array.of_list stats), List.length stats)

(* Throughput in [windows] consecutive slices of the timed phase, each
   holding an equal share of the completions: slice size over the time
   from the previous slice's last completion (or [t0]) to its own last.
   Exact, where a count over a fixed window would step by whole
   requests. *)
let window_rps t ~t0 ~span_ns ~windows =
  let fin = Array.concat (List.map Util.Vec.to_array (Array.to_list t.fin)) in
  let fin = Array.of_list (List.filter (fun f -> f - t0 < span_ns) (Array.to_list fin)) in
  Array.sort Int.compare fin;
  let n = Array.length fin in
  Array.init windows (fun w ->
      let lo = w * n / windows and hi = ((w + 1) * n / windows) - 1 in
      let start = if lo = 0 then t0 else fin.(lo - 1) in
      if hi < lo || fin.(hi) <= start then 0.0
      else float_of_int (hi - lo + 1) /. Util.ns_to_s (fin.(hi) - start))

type flight = { seq : int; sent_ns : int; kind : K.kind; line : string; slot : int }

(* Run until [stop ()] holds, then drain what is in flight.  Each
   connection is a closed loop over bursts: it writes [depth] request
   lines at once (one write, as a pipelining client does), waits for all
   [depth] replies, then writes the next burst.  [next seq] is the request
   to send; [check] judges a reply ([`Ok], [`Error] for a typed error or
   refusal, [`Wrong] for a bad answer).  [gap_ns] > 0 paces each
   connection: its next burst leaves [gap_ns] after the previous reply
   (used for visibility probes, never for measured reads). *)
let run ?writer ?(gap_ns = 0) ~conns ~depth ~next ~check ~stop tally =
  let n = Array.length conns in
  let flights = Array.init n (fun _ -> Queue.create ()) in
  let alive = Array.make n true in
  let resume = Array.make n (-1) in
  let seq = ref 0 in
  let stopping = ref false in
  let send ci =
    let burst =
      List.init depth (fun slot ->
          let s = !seq in
          incr seq;
          let line, kind = next s in
          (s, line, kind, (ci * depth) + slot))
    in
    let sent_ns = Util.now_ns () in
    Client.send conns.(ci) (String.concat "\n" (List.map (fun (_, l, _, _) -> l) burst));
    List.iter
      (fun (seq, line, kind, slot) ->
        tally.sent <- tally.sent + 1;
        Queue.push { seq; sent_ns; kind; line; slot } flights.(ci))
      burst
  in
  let inflight () = Array.fold_left (fun acc q -> acc + Queue.length q) 0 flights in
  let on_line ci reply =
    let recv = Util.now_ns () in
    match Queue.take_opt flights.(ci) with
    | None -> tally.errors <- tally.errors + 1
    | Some f ->
      tally.completed <- tally.completed + 1;
      Util.Vec.push tally.lat.(kind_index f.kind) (recv - f.sent_ns);
      Util.Vec.push tally.fin.(kind_index f.kind) recv;
      Spans.add_request
        ~name:("request." ^ K.kind_name f.kind)
        ~group:f.seq ~track:(Spans.request_track f.slot) f.sent_ns recv;
      (match check ~line:f.line ~kind:f.kind ~reply ~recv with
      | `Ok -> ()
      | `Error -> tally.errors <- tally.errors + 1
      | `Wrong -> tally.wrong <- tally.wrong + 1);
      if not !stopping then stopping := stop ();
      if Queue.is_empty flights.(ci) && not !stopping then
        if gap_ns = 0 then send ci else resume.(ci) <- recv + gap_ns
  in
  stopping := stop ();
  if not !stopping then Array.iteri (fun ci _ -> send ci) conns;
  let finished = ref false in
  while not !finished do
    Option.iter pump writer;
    if not !stopping then stopping := stop ();
    let now = Util.now_ns () in
    Array.iteri
      (fun ci t ->
        if t >= 0 && t <= now then begin
          resume.(ci) <- -1;
          if alive.(ci) && not !stopping then send ci
        end)
      resume;
    if !stopping && inflight () = 0 then finished := true
    else begin
      let wake = ref (now + 20_000_000) in
      (match writer with
      | Some w when w.next < Array.length w.rows -> wake := min !wake (due w w.next)
      | Some _ | None -> ());
      Array.iter (fun t -> if t >= 0 then wake := min !wake t) resume;
      let timeout = Float.max 0.0 (float_of_int (!wake - now) /. 1e9) in
      let fds = ref [] in
      Array.iteri
        (fun ci c -> if alive.(ci) && not (Queue.is_empty flights.(ci)) then fds := c.Client.fd :: !fds)
        conns;
      let readable =
        match Unix.select !fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      Array.iteri
        (fun ci c ->
          if List.memq c.Client.fd readable then
            try Client.read_lines c (on_line ci)
            with Client.Closed ->
              alive.(ci) <- false;
              tally.closed_early <- tally.closed_early + Queue.length flights.(ci);
              Queue.clear flights.(ci))
        conns;
      if Array.for_all not alive then finished := true
    end
  done
