(* The served run: one load-generator process multiplexing at most two
   connections with [Unix.select]. Readers are closed-loop (the next
   request leaves when the previous reply arrives); the writer is
   open-loop — batch k is due at [writer_from + k / rate] whether or
   not the server kept up, and its latency runs from that due time, so
   a slow server cannot hide its backlog (no coordinated omission).
   Every [calib_every_s] the readers drain and, with nothing in
   flight, the host-speed kernel is timed (see [Hostspeed]); the pause
   is not part of any request's latency. *)

open Common
module Update = Kaskade.Update

type read = {
  text : string;
  version : int;
  checksum : string;
  rows : int;
  sent_ns : int;
  read_ns : int;
}

type write = {
  ops : Update.op list;
  applied : int;
  due_ns : int;
  version_after : int;
  write_ns : int;  (** Reply time minus due time. *)
  late_ns : int;  (** Send time minus due time. *)
}

type outcome = {
  reads : read list;  (** Every successful read, warm-up included. *)
  writes : write list;  (** Every batch, in send (= apply) order. *)
  kernels : (int * int) list;  (** Start time and duration (ns) of each host-speed kernel run. *)
  read_window : int * int;  (** Measured window of read send times, monotonic ns. *)
  write_window : int * int;  (** Measured window of write due times. *)
  attempted : int;
  failed : int;  (** [ERR] replies: errors and sheds. *)
}

type pending =
  | Idle
  | Repin  (** [ingest] reads re-pin before each query. *)
  | Read of { text : string; sent : int }
  | Write of { ops : Update.op list; due : int; sent : int }

type slot = { conn : Conn.t; writer : bool; mutable pending : pending }

let spin_ns = 500_000
let calib_every_s = 0.5

(* The kernel is not started when a batch is due sooner than this, so
   it never makes the open-loop writer late. *)
let calib_guard_ns = 30_000_000

(* [warmup_s + read_s] of closed-loop reads on [readers] connections
   (only reads sent after the warm-up are measured). The writer is due
   [Workload.write_rate kind] batches per second: beside the readers for
   [ingest], otherwise for [trailing_write_s] once the reads are over. *)
let run kind ~socket ~(stream : Workload.stream) ~(batches : Workload.batches) ~warmup_s ~read_s
    ~trailing_write_s =
  let readers = match kind with Workload.Ingest -> 1 | Lineage | Lookup -> 2 in
  let slot writer = { conn = Conn.connect socket; writer; pending = Idle } in
  let slots = Array.init (readers + 1) (fun i -> slot (i = readers)) in
  Array.iter (fun s -> if not s.writer then ignore (Conn.expect_ok s.conn "OPEN")) slots;
  let ns s = int_of_float (s *. 1e9) in
  let t0 = now_ns () in
  let measure_from = t0 + ns warmup_s in
  let reads_until = measure_from + ns read_s in
  let writer_from, writer_until =
    match kind with
    | Workload.Ingest -> (t0, reads_until)
    | Lineage | Lookup -> (reads_until, reads_until + ns trailing_write_s)
  in
  let period = 1e9 /. Workload.write_rate kind in
  let due k = writer_from + int_of_float (float_of_int k *. period) in
  let next_batch = ref 0 in
  let calib_due = ref t0 in
  let reads = ref [] and writes = ref [] and kernels = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let send s line pending =
    incr attempted;
    Conn.send s.conn line;
    s.pending <- pending
  in
  let issue_read s now =
    match kind with
    | Workload.Ingest -> send s "REPIN" Repin
    | Lineage | Lookup ->
      let text = stream.next () in
      send s ("Q " ^ text) (Read { text; sent = now })
  in
  let issue_write s now =
    let d = due !next_batch in
    if now >= d && d < writer_until then begin
      incr next_batch;
      let ops = batches.next_batch () in
      send s (Workload.update_line ops) (Write { ops; due = d; sent = now })
    end
  in
  let complete s line now =
    let kvs = Conn.fields line in
    let ok = Conn.is_ok kvs in
    if not ok then incr failed;
    (match s.pending with
    | Idle -> fail "reply %S with no request in flight" line
    | Repin ->
      s.pending <- Idle;
      if ok then begin
        let text = stream.next () in
        send s ("Q " ^ text) (Read { text; sent = now })
      end
    | Read { text; sent } ->
      s.pending <- Idle;
      if ok then begin
        let r =
          {
            text;
            version = Conn.int_field kvs "version";
            checksum = Conn.field kvs "checksum";
            rows = Conn.int_field kvs "rows";
            sent_ns = sent;
            read_ns = now - sent;
          }
        in
        reads := r :: !reads
      end
    | Write { ops; due; sent } ->
      s.pending <- Idle;
      (* A lost batch would desynchronize every later version the
         oracle replays. *)
      if not ok then fail "UPDATE failed: %s" line;
      let w =
        {
          ops;
          applied = Conn.int_field kvs "applied";
          due_ns = due;
          version_after = Conn.int_field kvs "version";
          write_ns = now - due;
          late_ns = sent - due;
        }
      in
      writes := w :: !writes);
    if s.pending = Idle && (not s.writer) && now < reads_until && now < !calib_due then
      issue_read s now
  in
  (* Once the kernel is due, readers stop issuing; when nothing is in
     flight it runs, and the readers resume. *)
  let calibrate now =
    let write_soon = due !next_batch < writer_until && due !next_batch - now < calib_guard_ns in
    if now >= !calib_due && now < reads_until && (not write_soon)
       && Array.for_all (fun s -> s.pending = Idle) slots
    then begin
      kernels := (now, Hostspeed.kernel ()) :: !kernels;
      let now = now_ns () in
      calib_due := now + ns calib_every_s;
      Array.iter (fun s -> if not s.writer then issue_read s now) slots
    end
  in
  let rec loop () =
    calibrate (now_ns ());
    let now = now_ns () in
    let writer = slots.(readers) in
    if writer.pending = Idle then issue_write writer now;
    let busy = Array.to_list slots |> List.filter (fun s -> s.pending <> Idle) in
    let more_writes = due !next_batch < writer_until in
    if busy <> [] || more_writes then begin
      (* Sleep until the next batch is due, except for its last
         [spin_ns]: those are spent polling, because a timed wake-up
         can be late by more than the server takes to apply a batch. *)
      let wake =
        if writer.pending = Idle && more_writes then
          let left = due !next_batch - now in
          if left <= spin_ns then 0.0 else float_of_int (left - spin_ns) /. 1e9
        else 1.0
      in
      let fds = List.map (fun s -> Conn.fd s.conn) busy in
      let ready =
        match Unix.select fds [] [] (Float.max 0.0 wake) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun s ->
          if List.mem (Conn.fd s.conn) ready then begin
            Conn.fill s.conn;
            let rec drain () =
              match Conn.take_reply s.conn with
              | Some line ->
                complete s line (now_ns ());
                drain ()
              | None -> ()
            in
            drain ()
          end)
        busy;
      loop ()
    end
  in
  loop ();
  let conns = Array.to_list (Array.map (fun s -> s.conn) slots) in
  ( conns,
    {
      reads = List.rev !reads;
      writes = List.rev !writes;
      kernels = List.rev !kernels;
      read_window = (measure_from, reads_until);
      write_window = (Stdlib.max writer_from measure_from, writer_until);
      attempted = !attempted;
      failed = !failed;
    } )
