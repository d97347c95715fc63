module Driver = Sweep_sim.Driver
module Mstats = Sweep_machine.Mstats

type summary = {
  outcome : Driver.outcome;
  mstats : Mstats.t;
  miss_rate : float;
  nvm_writes : int;
}

(* ------------------------------------------------------------------ *)
(* The store.  One global keyed table shared by the sequential render
   path (Exp_common.run) and the parallel executor; every access takes
   [lock].  Insertion keeps the first value so callers can rely on
   physical equality of repeated lookups. *)

let lock = Mutex.create ()
let table : (string, summary) Hashtbl.t = Hashtbl.create 256

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find key = with_lock (fun () -> Hashtbl.find_opt table key)

let add ~key summary =
  with_lock (fun () ->
      match Hashtbl.find_opt table key with
      | Some existing -> existing
      | None ->
        Hashtbl.replace table key summary;
        summary)

let mem key = with_lock (fun () -> Hashtbl.mem table key)
let size () = with_lock (fun () -> Hashtbl.length table)

(* ------------------------------------------------------------------ *)
(* Failure side-store.  A job that raises (e.g. [Driver.Stagnation] on
   a region too long for the capacitor) produces no summary; the
   executor records it here instead of tearing down the worker pool, so
   one bad job cannot kill a -j N sweep.  Renderers then see a missing
   key and the CLI reports the failures at the end. *)

type failure = { key : string; error : string; backtrace : string }

let failure_log : failure list ref = ref []

let record_failure ~key ~error ~backtrace =
  with_lock (fun () -> failure_log := { key; error; backtrace } :: !failure_log)

let failures () = with_lock (fun () -> List.rev !failure_log)

let clear () =
  with_lock (fun () ->
      Hashtbl.reset table;
      failure_log := [])

let snapshot () =
  with_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

(* ------------------------------------------------------------------ *)
(* JSONL sink.  Disabled until a directory is configured; each executed
   job then appends one line to <dir>/<experiment>.jsonl.  Appends are
   serialised by [io_lock] and use open/write/close per line so
   concurrent domains never interleave partial lines. *)

let io_lock = Mutex.create ()
let sink_dir = ref None
let current_exp = ref "adhoc"

let set_dir dir = Mutex.lock io_lock; sink_dir := dir; Mutex.unlock io_lock
let dir () = !sink_dir

let set_current_experiment name =
  Mutex.lock io_lock;
  current_exp := name;
  Mutex.unlock io_lock

let current_experiment () = !current_exp

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Bump when the line layout changes; consumers should check it before
   parsing (see README "Results schema").  v2 added [schema_version] and
   the [ts] emission timestamp. *)
let schema_version = 2

type direction = [ `Lower_better | `Higher_better | `Info ]

(* The numeric per-line fields and the direction a change should be
   judged in, kept next to [json_line] so a schema change updates both.
   [`Info] fields are reported but never gate a regression verdict
   (e.g. elapsed_s is wall-clock noise; buffer_hits depends on the
   design's policy, not on how fast it runs). *)
let numeric_fields =
  [
    ("on_ns", `Lower_better);
    ("off_ns", `Lower_better);
    ("outages", `Lower_better);
    ("deaths", `Lower_better);
    ("backups", `Info);
    ("failed_backups", `Lower_better);
    ("compute_joules", `Lower_better);
    ("backup_joules", `Lower_better);
    ("restore_joules", `Lower_better);
    ("quiescent_joules", `Lower_better);
    ("instructions", `Lower_better);
    ("loads", `Info);
    ("stores", `Info);
    ("regions", `Info);
    ("buffer_searches", `Info);
    ("buffer_bypasses", `Info);
    ("buffer_hits", `Info);
    ("parallelism_eff", `Higher_better);
    ("miss_rate", `Lower_better);
    ("nvm_writes", `Lower_better);
    ("scale", `Info);
    ("elapsed_s", `Info);
  ]

(* Derived series sweeptrace adds on top of the raw fields. *)
let derived_fields =
  [ ("total_ns", `Lower_better); ("total_joules", `Lower_better) ]

let direction name =
  match List.assoc_opt name (numeric_fields @ derived_fields) with
  | Some d -> d
  | None -> `Info

let iso8601 epoch_s =
  let tm = Unix.gmtime epoch_s in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let json_line ?ts ~exp ~key ~design ~label ~power ~bench ~scale ~elapsed_s s =
  let o = s.outcome in
  let st = s.mstats in
  let ts = match ts with Some t -> t | None -> Unix.gettimeofday () in
  Printf.sprintf
    "{\"schema_version\":%d,\"ts\":\"%s\",\
     \"experiment\":\"%s\",\"key\":\"%s\",\"design\":\"%s\",\"label\":\"%s\",\
     \"power\":\"%s\",\"bench\":\"%s\",\"scale\":%g,\
     \"completed\":%b,\"on_ns\":%.17g,\"off_ns\":%.17g,\
     \"outages\":%d,\"deaths\":%d,\"backups\":%d,\"failed_backups\":%d,\
     \"compute_joules\":%.17g,\"backup_joules\":%.17g,\
     \"restore_joules\":%.17g,\"quiescent_joules\":%.17g,\
     \"instructions\":%d,\"loads\":%d,\"stores\":%d,\"regions\":%d,\
     \"buffer_searches\":%d,\"buffer_bypasses\":%d,\"buffer_hits\":%d,\
     \"parallelism_eff\":%.17g,\
     \"miss_rate\":%.17g,\"nvm_writes\":%d,\"elapsed_s\":%.6f}"
    schema_version (iso8601 ts)
    (json_escape exp) (json_escape key) (json_escape design)
    (json_escape label) (json_escape power) (json_escape bench) scale
    o.Driver.completed o.Driver.on_ns o.Driver.off_ns o.Driver.outages
    o.Driver.deaths o.Driver.backups o.Driver.failed_backups
    o.Driver.compute_joules o.Driver.backup_joules o.Driver.restore_joules
    o.Driver.quiescent_joules o.Driver.instructions st.Mstats.loads
    st.Mstats.stores st.Mstats.regions st.Mstats.buffer_searches
    st.Mstats.buffer_bypasses st.Mstats.buffer_hits
    (Mstats.parallelism_efficiency st)
    s.miss_rate s.nvm_writes elapsed_s

let emit ~exp ~key ~design ~label ~power ~bench ~scale ~elapsed_s summary =
  match !sink_dir with
  | None -> ()
  | Some dir ->
    let line =
      json_line ~exp ~key ~design ~label ~power ~bench ~scale ~elapsed_s
        summary
    in
    Mutex.lock io_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock io_lock)
      (fun () ->
        Sweep_util.Files.mkdir_p dir;
        let path = Filename.concat dir (exp ^ ".jsonl") in
        let oc =
          open_out_gen [ Open_append; Open_creat ] 0o644 path
        in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc line;
            output_char oc '\n';
            (* Durability on normal completion, not just on failure: a
               supervisor-respawned process must never re-read a torn
               final record as valid. *)
            flush oc;
            try Unix.fsync (Unix.descr_of_out_channel oc)
            with Unix.Unix_error _ -> ()))
