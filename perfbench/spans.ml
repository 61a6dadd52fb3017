(* The traced run's span recorder.  Spans stay in memory and are written
   out once, at the end, as Chrome trace-event JSON (the format [qct trace]
   emits; open it in Perfetto or chrome://tracing).

   A span has a name, a start, an end, its own id, the id of the span that
   caused it ([parent], 0 for a root) and a [group]: the request, batch or
   generation it belongs to, shared by every span of that unit.  [track]
   is the Chrome thread row; spans on one track never overlap. *)

type span = {
  name : string;
  sid : int;
  parent : int;
  group : int;
  track : int;
  start_ns : int;
  end_ns : int;
}

type t = {
  mutable on : bool;
  mutable spans : span list;
  mutable next_sid : int;
  mutable request_spans : int;
}

let rec_ = { on = false; spans = []; next_sid = 1; request_spans = 0 }

let enable () = rec_.on <- true

(* The client keeps one span per request for the first this many
   requests only, which bounds the trace file (about 100 bytes a span);
   latency statistics always use every request. *)
let max_request_spans = 50_000

(* Reserve an id before the span's children run, so they can name it. *)
let fresh () =
  let sid = rec_.next_sid in
  rec_.next_sid <- sid + 1;
  sid

let add ~name ?(sid = 0) ?(parent = 0) ~group ~track start_ns end_ns =
  if rec_.on then begin
    let sid = if sid = 0 then fresh () else sid in
    rec_.spans <- { name; sid; parent; group; track; start_ns; end_ns } :: rec_.spans
  end

(* Time [f] as one span; the duration in ns is returned with the result.
   [f] receives the span's id to parent its children. *)
let time ~name ?(parent = 0) ~group ~track f =
  let sid = if rec_.on then fresh () else 0 in
  let t0 = Util.now_ns () in
  let r = f sid in
  let t1 = Util.now_ns () in
  add ~name ~sid ~parent ~group ~track t0 t1;
  (r, t1 - t0)

let time_ ~name ?parent ~group ~track f = time ~name ?parent ~group ~track (fun _ -> f ())

let add_request ~name ~group ~track start_ns end_ns =
  if rec_.on && rec_.request_spans < max_request_spans then begin
    rec_.request_spans <- rec_.request_spans + 1;
    add ~name ~group ~track start_ns end_ns
  end

(* Fixed tracks; the client's in-flight request slots use [request_track]. *)
let stream_track = 1

let build_track = 2

let request_replay_track = 3

let write_track = 4

let request_track slot = 10 + slot

let track_name = function
  | 1 -> "client: row stream and visibility"
  | 2 -> "in-process: build"
  | 3 -> "in-process: requests"
  | 4 -> "in-process: write path, refreeze, publish"
  | t -> Printf.sprintf "client: request slot %d" (t - 10)

let write_chrome path =
  let spans = List.rev rec_.spans in
  let t0 = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let tracks = List.sort_uniq Int.compare (List.map (fun s -> s.track) spans) in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  List.iter
    (fun tid ->
      sep ();
      Printf.bprintf b
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
        tid (track_name tid))
    tracks;
  List.iter
    (fun s ->
      sep ();
      Printf.bprintf b
        "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"sid\":%d,\"parent\":%d}}"
        s.name
        (float_of_int (s.start_ns - t0) /. 1e3)
        (float_of_int (s.end_ns - s.start_ns) /. 1e3)
        s.track s.group s.sid s.parent)
    spans;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Util.write_file path (Buffer.contents b);
  List.length spans
