(* The perf-regression pipeline's workload matrix and history file.

   [jobs] pins a small design × benchmark matrix (the CI smoke set);
   [run] executes it through the parallel executor and projects every
   summary onto the gated numeric fields of the results schema.  The
   history file (BENCH_sweepcache.json) accumulates one entry per
   commit; [append] rewrites it atomically (tmp + rename) so an
   interrupted CI job can't truncate the history.  The simulator is
   fully deterministic, so exact values — not statistics — are what the
   diff gate compares. *)

module Results = Sweep_exp.Results
module Jobs = Sweep_exp.Jobs
module Exp_common = Sweep_exp.Exp_common

let schema_version = 2

(* v1 entries predate the throughput track; they carry the same result
   fields and stay diffable, so the loader accepts both. *)
let accepted_schema_versions = [ 1; 2 ]

(* Bump the matrix id whenever the job set or any default the jobs
   depend on changes — entries with a different id must not be diffed
   against each other. *)
let matrix_id = "sweepcache-smoke-v1"

let settings () =
  [
    Exp_common.setting Sweep_sim.Harness.Nvp;
    Exp_common.setting Sweep_sim.Harness.Replay;
    Exp_common.sweep_empty_bit;
  ]

let benches = [ "sha"; "dijkstra"; "fft" ]
let scale = 0.1
let power = Jobs.harvested Sweep_energy.Power_trace.Rf_home

let jobs () =
  Jobs.matrix ~exp:"bench" ~scale ~powers:[ power ] (settings ()) benches

(* ---------------- running the matrix ---------------- *)

(* One executed job, projected onto the schema's numeric fields (minus
   wall-clock noise).  Reuses the results-line renderer so the bench
   file and the JSONL sink can never disagree about a value. *)
let fields_of_summary job summary =
  let line =
    Results.json_line ~ts:0.0 ~exp:"bench" ~key:(Jobs.key job)
      ~design:
        (Sweep_sim.Harness.design_name job.Jobs.setting.Exp_common.design)
      ~label:job.Jobs.setting.Exp_common.label
      ~power:(Jobs.power_id job.Jobs.power)
      ~bench:job.Jobs.bench ~scale:job.Jobs.scale ~elapsed_s:0.0 summary
  in
  match Json.parse line with
  | Error e -> failwith ("bench: internal render error: " ^ e)
  | Ok j ->
    List.filter_map
      (fun (name, _) ->
        if name = "elapsed_s" then None
        else Option.map (fun v -> (name, v)) (Json.float_member name j))
      Results.numeric_fields

let run ?workers () : Diff.run =
  let jobs = jobs () in
  Sweep_exp.Executor.execute ?workers jobs;
  List.map
    (fun job ->
      let key = Jobs.key job in
      match Results.find key with
      | Some summary -> (key, fields_of_summary job summary)
      | None -> failwith ("bench: executor produced no summary for " ^ key))
    jobs

(* ---------------- wall-clock throughput ---------------- *)

(* Simulated instructions per wall-second, measured sequentially per
   job (the parallel executor would make jobs contend for cores and
   understate each one).  Each job's compiled program is built outside
   the timed region; machine construction + the driver run are inside
   it, repeated until [min_seconds] of wall time accumulates so fast
   simulators still get a stable number.  Unlike the result fields this
   is host-dependent and noisy, so it is stored in a separate entry
   member and gated by a coarse ratio, never by the exact-value diff. *)
let measure_job_ips ?(min_seconds = 0.2) job =
  let s = job.Jobs.setting in
  let w = Sweep_workloads.Registry.find job.Jobs.bench in
  let ast = Sweep_workloads.Workload.program ~scale:job.Jobs.scale w in
  let compiled =
    Sweep_sim.Harness.compile ~options:s.Exp_common.options
      s.Exp_common.design ast
  in
  let prog = compiled.Sweep_compiler.Pipeline.program in
  let power = Jobs.to_power job.Jobs.power in
  let instructions = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_seconds do
    let m = Sweep_sim.Harness.machine ~config:s.Exp_common.config
        s.Exp_common.design prog
    in
    let t0 = Sweep_util.Clock.now_s () in
    let outcome = Sweep_sim.Driver.run m ~power in
    elapsed := !elapsed +. (Sweep_util.Clock.now_s () -. t0);
    instructions := !instructions + outcome.Sweep_sim.Driver.instructions
  done;
  float_of_int !instructions /. !elapsed

let measure_throughput ?min_seconds () =
  List.map
    (fun job -> (Jobs.key job, measure_job_ips ?min_seconds job))
    (jobs ())

let geomean = function
  | [] -> 0.0
  | ips ->
    let n = float_of_int (List.length ips) in
    exp (List.fold_left (fun a (_, v) -> a +. log v) 0.0 ips /. n)

(* ---------------- history file ---------------- *)

type entry = {
  ts : string;
  commit : string;
  results : Diff.run;
  throughput : (string * float) list;
}

let entry_json e =
  Json.Obj
    ([
       ("ts", Json.Str e.ts);
       ("commit", Json.Str e.commit);
       ( "results",
         Json.Obj
           (List.map
              (fun (key, fields) ->
                ( key,
                  Json.Obj
                    (List.map (fun (n, v) -> (n, Json.Num v)) fields) ))
              e.results) );
     ]
    @
    if e.throughput = [] then []
    else
      [
        ( "throughput",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) e.throughput) );
      ])

let file_json entries =
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int schema_version));
      ("matrix_id", Json.Str matrix_id);
      ("entries", Json.List (List.map entry_json entries));
    ]

let entry_of_json j =
  let ( let* ) = Option.bind in
  let* ts = Json.string_member "ts" j in
  let* commit = Json.string_member "commit" j in
  let* results = Json.member "results" j in
  let* keyed = Json.to_obj results in
  let results =
    List.map
      (fun (key, fields) ->
        ( key,
          match Json.to_obj fields with
          | Some kvs ->
            List.filter_map
              (fun (n, v) -> Option.map (fun f -> (n, f)) (Json.to_float v))
              kvs
          | None -> [] ))
      keyed
  in
  let throughput =
    match Json.member "throughput" j with
    | Some tj -> (
      match Json.to_obj tj with
      | Some kvs ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
          kvs
      | None -> [])
    | None -> []
  in
  Some { ts; commit; results; throughput }

let load_entries path =
  if not (Sys.file_exists path) then Ok []
  else
    match Json.parse_file path with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> (
      match (Json.int_member "schema_version" j, Json.string_member "matrix_id" j)
      with
      | Some v, _ when not (List.mem v accepted_schema_versions) ->
        Error (Printf.sprintf "%s: unsupported schema_version %d" path v)
      | _, Some id when id <> matrix_id ->
        Error
          (Printf.sprintf
             "%s: matrix %s does not match current %s — regenerate the \
              baseline"
             path id matrix_id)
      | Some _, Some _ ->
        Ok
          (List.filter_map entry_of_json
             (Option.value ~default:[] (Json.list_member "entries" j)))
      | _ -> Error (path ^ ": not a bench history file"))

let append ~path entry =
  match load_entries path with
  | Error e -> Error e
  | Ok entries ->
    let body = Json.render (file_json (entries @ [ entry ])) in
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc body;
        output_char oc '\n');
    Sys.rename tmp path;
    Ok (List.length entries + 1)

let latest path =
  match load_entries path with
  | Error e -> Error e
  | Ok [] -> Error (path ^ ": empty bench history")
  | Ok entries -> Ok (List.nth entries (List.length entries - 1))
