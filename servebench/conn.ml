(* One client connection speaking the Wire line protocol over a raw
   Unix-socket fd. Unlike [Kaskade_serve.Client] it exposes the fd and
   buffers partial lines itself, so the load generator can multiplex
   connections with [Unix.select]; blocking reads time out instead of
   hanging on a stuck server. *)

type t = { fd : Unix.file_descr; chunk : Bytes.t; mutable acc : string }

(* No single reply in this benchmark takes anywhere near this long. *)
let io_timeout_s = 30.0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout_s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout_s;
  { fd; chunk = Bytes.create 65536; acc = "" }

let fd t = t.fd
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write t.fd b off (Bytes.length b - off))
  in
  go 0

(* Read whatever the socket has; raises [End_of_file] when the server
   hung up. *)
let fill t =
  match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> raise End_of_file
  | n -> t.acc <- t.acc ^ Bytes.sub_string t.chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Common.fail "server sent no reply within %.0fs" io_timeout_s

(* A complete buffered line, if any. *)
let take_line t =
  match String.index_opt t.acc '\n' with
  | None -> None
  | Some i ->
    let line = String.sub t.acc 0 i in
    t.acc <- String.sub t.acc (i + 1) (String.length t.acc - i - 1);
    Some line

(* The terminating [OK]/[ERR] line of one reply, skipping any
   ["| "]-prefixed row lines; [None] while it has not fully arrived. *)
let rec take_reply t =
  match take_line t with
  | None -> None
  | Some l when String.length l >= 2 && String.sub l 0 2 = "| " -> take_reply t
  | Some l -> Some l

let rec read_reply t =
  match take_reply t with
  | Some l -> l
  | None ->
    fill t;
    read_reply t

let request t line =
  send t line;
  read_reply t

(* Fields of a reply line ([("_status", "ok" | "err")] first). *)
let fields line =
  match Kaskade_serve.Wire.fields line with
  | Some kvs -> kvs
  | None -> Common.fail "malformed reply %S" line

let is_ok kvs = List.assoc_opt "_status" kvs = Some "ok"

let field kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> Common.fail "reply lacks %s" k

let int_field kvs k =
  match int_of_string_opt (field kvs k) with
  | Some n -> n
  | None -> Common.fail "reply field %s is not an integer" k

(* [request] that must succeed. *)
let expect_ok t line =
  let reply = request t line in
  let kvs = fields reply in
  if not (is_ok kvs) then Common.fail "%s -> %s" (List.hd (String.split_on_char ' ' line)) reply;
  kvs
