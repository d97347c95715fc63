(* Persistent content-addressed result cache.

   One file per cached summary under the cache directory, named by the
   MD5 of (canonical job key, config digest) so a key collision across
   configs is impossible by construction.  The on-disk layout is a
   single ASCII header line

     {"schema_version":N,"payload_bytes":B,"payload_md5":"<hex>"}

   followed by exactly B bytes of [Marshal]-ed {!entry}.  The header is
   what makes the cache corruption-safe: a reader accepts an entry only
   when the byte count is exact (no trailing garbage, no truncation)
   and the payload MD5 matches (no bit flips), and the unmarshalled
   entry must echo the key and digest it was looked up under.  Any
   mismatch is a warned miss — the offending file is unlinked and the
   job re-simulated — never a trusted result.

   Writes go through a pid-unique temp file and [Unix.rename], so a
   concurrent reader (another sweep process sharing the directory) sees
   either the old complete entry or the new complete entry, never a
   torn one.

   Eviction is LRU by mtime: a hit bumps the entry's mtime to "now",
   and after every store the directory is trimmed oldest-first until it
   fits [max_bytes] (name-ordered tiebreak for determinism). *)

let schema_version = 1

type entry = {
  e_key : string;
  e_digest : string;
  e_elapsed_s : float;
  e_summary : Results.summary;
}

type stats = { hits : int; misses : int; evictions : int; corrupt : int }

type t = {
  dir : string;
  max_bytes : int;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable corrupt : int;
}

let m_hits = Sweep_obs.Metrics.counter "exp.rcache_hits"
let m_misses = Sweep_obs.Metrics.counter "exp.rcache_misses"
let m_evictions = Sweep_obs.Metrics.counter "exp.rcache_evictions"
let m_corrupt = Sweep_obs.Metrics.counter "exp.rcache_corrupt"

let default_max_bytes = 256 * 1024 * 1024

let create ?(max_bytes = default_max_bytes) dir =
  Sweep_util.Files.mkdir_p dir;
  {
    dir;
    max_bytes = max max_bytes 0;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
    corrupt = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        corrupt = t.corrupt;
      })

(* Identity of everything that affects a summary but is not in the job
   key: the full setting (design, machine config, compiler options —
   the label rides along harmlessly), plus the marshal format and
   compiler version so an OCaml upgrade can never deserialise stale
   bytes into the wrong layout. *)
let config_digest (setting : Exp_common.setting) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (schema_version, Sys.ocaml_version, setting) []))

let entry_suffix = ".rce"

let path_of t ~key ~digest =
  Filename.concat t.dir
    (Digest.to_hex (Digest.string (key ^ "\x00" ^ digest)) ^ entry_suffix)

let warn_corrupt t path what =
  t.corrupt <- t.corrupt + 1;
  if Sweep_obs.Metrics.enabled () then Sweep_obs.Metrics.inc m_corrupt;
  Printf.eprintf "warning: result cache: dropping corrupt entry %s (%s)\n%!"
    (Filename.basename path) what;
  try Sys.remove path with Sys_error _ -> ()

(* Read and fully verify one entry file.  Returns [None] (after
   warning and unlinking) on any structural defect. *)
let read_entry t path ~key ~digest =
  match open_in_bin path with
  | exception Sys_error _ -> None (* plain miss: no entry *)
  | ic ->
    let verdict =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      match input_line ic with
      | exception End_of_file -> Error "empty file"
      | header -> (
        match
          Scanf.sscanf header
            "{\"schema_version\":%d,\"payload_bytes\":%d,\"payload_md5\":%S}"
            (fun v b m -> (v, b, m))
        with
        | exception Scanf.Scan_failure _ -> Error "unparsable header"
        | exception End_of_file -> Error "unparsable header"
        | exception Failure _ -> Error "unparsable header"
        | v, _, _ when v <> schema_version ->
          Error (Printf.sprintf "schema_version %d" v)
        | _, bytes, _ when bytes <= 0 -> Error "bad payload size"
        | _, bytes, md5 -> (
          let payload = Bytes.create bytes in
          match really_input ic payload 0 bytes with
          | exception End_of_file -> Error "truncated payload"
          | () -> (
            match input_char ic with
            | exception End_of_file -> Error "truncated payload"
            | c when c <> '\n' -> Error "trailing bytes"
            | _ when pos_in ic <> in_channel_length ic ->
              Error "trailing bytes"
            | _ ->
              if Digest.to_hex (Digest.bytes payload) <> md5 then
                Error "checksum mismatch"
              else (
                match (Marshal.from_bytes payload 0 : entry) with
                | exception _ -> Error "undecodable payload"
                | e ->
                  if e.e_key <> key || e.e_digest <> digest then
                    Error "key/digest mismatch"
                  else Ok e))))
    in
    (match verdict with
    | Ok e -> Some e
    | Error what ->
      warn_corrupt t path what;
      None)

let find t ~key ~digest =
  with_lock t @@ fun () ->
  let path = path_of t ~key ~digest in
  match read_entry t path ~key ~digest with
  | Some e ->
    t.hits <- t.hits + 1;
    if Sweep_obs.Metrics.enabled () then Sweep_obs.Metrics.inc m_hits;
    (* LRU touch: a served entry is the freshest one. *)
    (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
    Some (e.e_summary, e.e_elapsed_s)
  | None ->
    t.misses <- t.misses + 1;
    if Sweep_obs.Metrics.enabled () then Sweep_obs.Metrics.inc m_misses;
    None

(* One stat pass over the directory: (mtime, name, size) per entry
   file, sorted oldest-first with a name-ordered tiebreak so concurrent
   same-second stores evict deterministically. *)
let scan_locked t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f entry_suffix)
  |> List.filter_map (fun f ->
         let p = Filename.concat t.dir f in
         match Unix.stat p with
         | exception Unix.Unix_error _ -> None
         | st when st.Unix.st_kind = Unix.S_REG ->
           Some (st.Unix.st_mtime, f, st.Unix.st_size)
         | _ -> None)
  |> List.sort compare

(* Trim the directory to [max_bytes]: select the whole LRU victim set
   from the single scan, then unlink it as a batch — no per-iteration
   re-stat, and the eviction counter moves once.  Called with the lock
   held, after a store. *)
let evict_locked t =
  let entries = scan_locked t in
  let total = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries in
  let rec victims acc excess = function
    | _ when excess <= 0 -> List.rev acc
    | [] -> List.rev acc
    | (_, f, sz) :: rest -> victims (f :: acc) (excess - sz) rest
  in
  match victims [] (total - t.max_bytes) entries with
  | [] -> ()
  | batch ->
    List.iter
      (fun f ->
        try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
      batch;
    t.evictions <- t.evictions + List.length batch;
    if Sweep_obs.Metrics.enabled () then
      Sweep_obs.Metrics.add m_evictions (List.length batch)

let disk_stats t =
  with_lock t @@ fun () ->
  let entries = scan_locked t in
  ( List.length entries,
    List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries )

let purge t =
  with_lock t @@ fun () ->
  let entries = scan_locked t in
  List.iter
    (fun (_, f, _) ->
      try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
    entries;
  ( List.length entries,
    List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries )

let store t ~key ~digest ~elapsed_s summary =
  with_lock t @@ fun () ->
  let payload =
    Marshal.to_bytes
      { e_key = key; e_digest = digest; e_elapsed_s = elapsed_s;
        e_summary = summary }
      []
  in
  let header =
    Printf.sprintf "{\"schema_version\":%d,\"payload_bytes\":%d,\
                    \"payload_md5\":%S}\n"
      schema_version (Bytes.length payload)
      (Digest.to_hex (Digest.bytes payload))
  in
  let path = path_of t ~key ~digest in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Hashtbl.hash key)
  in
  (try
     let oc = open_out_bin tmp in
     Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
         output_string oc header;
         output_bytes oc payload;
         output_char oc '\n';
         flush oc;
         try Unix.fsync (Unix.descr_of_out_channel oc)
         with Unix.Unix_error _ -> ());
     Unix.rename tmp path
   with Sys_error _ | Unix.Unix_error _ ->
     (try Sys.remove tmp with Sys_error _ -> ()));
  evict_locked t
