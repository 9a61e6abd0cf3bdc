(* Off-the-clock output oracle: every served read must equal a serial
   [Kaskade.query ~target:Base] at the reply's version, rendered with
   [Wire.render_result] and [Wire.checksum]; every UPDATE must report
   the effective-op count a serial replay of the same batches gives.
   Versions are reproduced by replaying the logged batches, in apply
   order, on a fresh in-memory facade over the same graph. *)

open Common
module Wire = Kaskade_serve.Wire
module Executor = Kaskade_exec.Executor

let rows = function
  | Executor.Table tbl -> Kaskade_exec.Row.n_rows tbl
  | Executor.Affected n -> n

(* Checksum and row count of the serial base answer on [ks]'s current
   version. *)
let expected ks text =
  match Kaskade.query ~target:Kaskade.Base ks (Kaskade.parse text) with
  | Ok (r, _) -> (Wire.checksum (Wire.render_result (Kaskade.graph ks) r), rows r)
  | Error e -> fail "serial base query failed: %s" (Kaskade.Error.to_string e)

type verdict = { checked_reads : int; checked_writes : int; mismatches : string list }

let check g ~initial_version (out : Loadgen.outcome) =
  let ks = Kaskade.make g in
  let mismatches = ref [] in
  let mismatch fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  if Kaskade.version ks <> initial_version then
    mismatch "served sessions opened at version %d, a fresh facade is at %d" initial_version
      (Kaskade.version ks);
  (* Reads grouped by version; each version's answers memoized by text. *)
  let by_version = Hashtbl.create 64 in
  List.iter
    (fun (r : Loadgen.read) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_version r.version) in
      Hashtbl.replace by_version r.version (r :: l))
    out.reads;
  let checked = ref 0 in
  let check_version () =
    let v = Kaskade.version ks in
    Option.iter
      (fun reads ->
        Hashtbl.remove by_version v;
        let memo = Hashtbl.create 64 in
        List.iter
          (fun (r : Loadgen.read) ->
            let sum, n =
              match Hashtbl.find_opt memo r.text with
              | Some e -> e
              | None ->
                let e = expected ks r.text in
                Hashtbl.add memo r.text e;
                e
            in
            incr checked;
            if sum <> r.checksum || n <> r.rows then
              mismatch "read at v%d: served rows=%d checksum=%s, serial rows=%d checksum=%s: %s" v
                r.rows r.checksum n sum r.text)
          reads)
      (Hashtbl.find_opt by_version v)
  in
  check_version ();
  List.iter
    (fun (w : Loadgen.write) ->
      let v0 = Kaskade.version ks in
      Kaskade.Update.batch w.ops ks;
      let v1 = Kaskade.version ks in
      if w.applied <> v1 - v0 || w.applied <> List.length w.ops then
        mismatch "UPDATE applied=%d, serial replay applied %d of %d ops" w.applied (v1 - v0)
          (List.length w.ops);
      if w.version_after <> v1 then
        mismatch "UPDATE reached v%d, serial replay reached v%d" w.version_after v1;
      check_version ())
    out.writes;
  Hashtbl.iter
    (fun v reads -> mismatch "%d reads at v%d, a version the replay never reached" (List.length reads) v)
    by_version;
  { checked_reads = !checked; checked_writes = List.length out.writes; mismatches = List.rev !mismatches }
