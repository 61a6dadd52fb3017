(* One client connection to [qct serve]: newline-framed request lines out,
   one JSON response line back per request, in order. *)

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (** bytes buffered, not yet framed *)
  mutable scanned : int;  (** prefix of [buf] known to hold no newline *)
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; len = 0; scanned = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

exception Closed

(* Read what the socket has and call [f] on every complete line.
   @raise Closed when the server closed the connection. *)
let read_lines c f =
  if Bytes.length c.buf - c.len < 65536 then begin
    let b = Bytes.create (2 * Bytes.length c.buf + 65536) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  let n =
    try Unix.read c.fd c.buf c.len 65536
    with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  if n = 0 then raise Closed;
  c.len <- c.len + n;
  let start = ref 0 in
  for i = c.scanned to c.len - 1 do
    if Bytes.get c.buf i = '\n' then begin
      f (Bytes.sub_string c.buf !start (i - !start));
      start := i + 1
    end
  done;
  if !start > 0 then Bytes.blit c.buf !start c.buf 0 (c.len - !start);
  c.len <- c.len - !start;
  c.scanned <- c.len

(* One blocking request/response round trip, outside any timed phase. *)
let call c line =
  send c line;
  let reply = ref None in
  while Option.is_none !reply do
    read_lines c (fun l -> reply := Some l)
  done;
  Option.get !reply

(* The integer after ["key":] in a flat JSON response, or [-1]. *)
let int_field line key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length line and m = String.length pat in
  let rec find i =
    if i + m > n then -1
    else if String.equal (String.sub line i m) pat then begin
      let j = ref (i + m) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      match int_of_string_opt (String.sub line (i + m) (!j - i - m)) with Some v -> v | None -> -1
    end
    else find (i + 1)
  in
  find 0

let is_ok line = String.length line >= 14 && String.equal (String.sub line 0 14) "{\"status\":\"ok\""
