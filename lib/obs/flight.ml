(* Crash flight recorder: a bounded ring armed alongside whatever sink
   is installed; on a captured job failure, [dump] writes a post-mortem
   JSONL artifact with the ring's tail (Dropped marker + pinned fault
   events preserved by [Ring.drain_to]), a metrics snapshot and the
   failing job's key.  Read back by [sweeptrace postmortem]. *)

type t = {
  ring : Ring.t;
  dir : string;
  lock : Mutex.t;  (* dumps may race from worker domains *)
}

let schema_version = 1
let default_capacity = 4096

let arm ?(capacity = default_capacity) ~dir () =
  Sweep_util.Files.mkdir_p dir;
  { ring = Ring.create ~capacity; dir; lock = Mutex.create () }

let sink t = Ring.sink t.ring

(* File name: a readable slug of the key plus a short hash so distinct
   keys that sanitise identically cannot collide. *)
let slug key =
  let b = Bytes.of_string key in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '-' || c = '_' || c = '.'
      in
      if not ok then Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  let s = if String.length s > 80 then String.sub s 0 80 else s in
  Printf.sprintf "%s-%06x" s (Hashtbl.hash key land 0xffffff)

let path_for t ~key = Filename.concat t.dir ("postmortem-" ^ slug key ^ ".jsonl")

let dump t ~key ~error ~backtrace =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let path = path_for t ~key in
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      (* header first, so even a truncated artifact names its job *)
      Printf.fprintf oc
        "{\"schema_version\":%d,\"kind\":\"postmortem\",\"job\":%s,\"error\":%s,\"backtrace\":%s,\"events\":%d,\"dropped\":%d}\n"
        schema_version
        (Event.json_string key)
        (Event.json_string error)
        (Event.json_string backtrace)
        (Ring.length t.ring) (Ring.dropped t.ring);
      let write_line ~ns ev =
        output_string oc (Jsonl_sink.render_line ~ns ev);
        output_char oc '\n'
      in
      Ring.drain_to t.ring (Sink.make write_line);
      Printf.fprintf oc "%s\n" (Metrics.render_json (Metrics.snapshot ()));
      close_out oc;
      Sys.rename tmp path;
      path)
