open Cmdliner
module Obs = Sweep_obs
module Executor = Sweep_exp.Executor
module Supervisor = Sweep_exp.Supervisor
module Rcache = Sweep_exp.Rcache
module Exit_code = Sweep_exp.Exit_code
module Report = Sweep_analyze.Report

(* ---------------- metrics ---------------- *)

type metrics_opts = {
  text : bool;
  snapshot : string option;
  export : string option;
}

let metrics_opts =
  let text =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Enable the metrics registry and dump it as text to \
                   stderr after the run.")
  in
  let snapshot =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Enable the metrics registry and write a JSON snapshot \
                   to FILE after the run (readable by sweeptrace).")
  in
  let export =
    Arg.(value & opt (some string) None
         & info [ "metrics-export" ] ~docv:"FILE"
             ~doc:"Enable the metrics registry and periodically re-export \
                   it to FILE in OpenMetrics (Prometheus text) format, \
                   refreshed on every heartbeat with a final flush at \
                   exit; enables heartbeats.")
  in
  Term.(const (fun text snapshot export -> { text; snapshot; export })
        $ text $ snapshot $ export)

let start_metrics m =
  if m.text || Option.is_some m.snapshot || Option.is_some m.export then
    Obs.Metrics.set_enabled true;
  Option.map (fun path -> Obs.Openmetrics.exporter ~path ()) m.export

let flush_metrics m export =
  Option.iter Obs.Openmetrics.flush export;
  Option.iter
    (fun path ->
      Obs.Metrics.write_json path (Obs.Metrics.snapshot ());
      Printf.eprintf "metrics snapshot written to %s\n" path)
    m.snapshot;
  if m.text then prerr_string (Obs.Metrics.render (Obs.Metrics.snapshot ()))

(* ---------------- run options ---------------- *)

type run_opts = {
  prog : string;
  jobs : int;
  metrics : metrics_opts;
  status_file : string option;
  flight_dir : string option;
  attrib_dir : string option;
  workers : int;
  retries : int;
  worker_timeout : float;
  respawn_budget : int;
  supervise_seed : int;
  chaos_kill_after : int option;
  cache_dir : string option;
  cache_max_bytes : int option;
}

(* Range checks: [below lo name n] is the complaint about [n], if any;
   [validate] turns the first complaint into cmdliner's one-line term
   error, which [eval] maps to the usage exit code. *)
let below lo name n =
  if n < lo then Some (Printf.sprintf "%s must be >= %d (got %d)" name lo n)
  else None

let validate complaints v =
  match List.find_map Fun.id complaints with Some e -> Error e | None -> Ok v

let non_negative name t =
  Term.term_result'
    (Term.map (fun v -> validate [ Option.bind v (below 0 name) ] v) t)

let run_opts =
  let jobs =
    Arg.(value & opt int (Domain.recommended_domain_count ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for in-process execution (default: the \
                   machine's recommended domain count; 1 = sequential); \
                   does not affect output.")
  in
  let status_file =
    Arg.(value & opt (some string) None
         & info [ "status-file" ] ~docv:"FILE"
             ~doc:"Maintain an atomically-updated live status snapshot \
                   (queued/running/done/failed, per-job progress, ETA) at \
                   FILE while the run executes; enables heartbeats.")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Arm the crash flight recorder: every captured job \
                   failure dumps a postmortem-*.jsonl artifact (recent \
                   events + metrics snapshot) into DIR, readable by \
                   $(b,sweeptrace postmortem).")
  in
  let attrib_dir =
    Arg.(value & opt (some string) None
         & info [ "attrib-dir" ] ~docv:"DIR"
             ~doc:"Arm per-PC attribution for every executed job and write \
                   DIR/<job key>.attrib.json (+ .folded collapsed stacks) \
                   per job.  Profiles are byte-identical at any -j; \
                   analyze with $(b,sweeptrace profile).")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Run jobs on N supervised worker $(i,processes) (the \
                   binary re-execs itself) instead of in-process domains: \
                   dead or hung workers are respawned with seeded backoff, \
                   in-flight jobs retry up to --retries times before \
                   quarantine, and output is byte-identical to \
                   $(b,--workers 0) (the default, in-process -j mode).")
  in
  let retries =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"K"
             ~doc:"Supervised mode: re-run a job up to K times after a \
                   worker death before quarantining it as a failure.")
  in
  let worker_timeout =
    Arg.(value & opt float 60.0
         & info [ "worker-timeout" ] ~docv:"SECONDS"
             ~doc:"Supervised mode: SIGKILL a busy worker that has been \
                   silent (no heartbeat, no result) this long; 0 disables \
                   the liveness check.")
  in
  let respawn_budget =
    Arg.(value & opt int 8
         & info [ "respawn-budget" ] ~docv:"N"
             ~doc:"Supervised mode: total worker respawns allowed for the \
                   run; once exhausted the run finishes degraded on the \
                   surviving workers (exit code 2).")
  in
  let supervise_seed =
    Arg.(value & opt int 42
         & info [ "supervise-seed" ] ~docv:"SEED"
             ~doc:"Seed for the respawn backoff jitter and the chaos \
                   victim chooser (deterministic schedules).")
  in
  let chaos_kill_after =
    Arg.(value & opt (some int) None
         & info [ "chaos-kill-after" ] ~docv:"N"
             ~doc:"Fault injection for tests: SIGKILL one seeded-chosen \
                   worker after N completed jobs (supervised mode only).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persistent content-addressed result cache: jobs whose \
                   (key, config digest) is already cached skip simulation; \
                   executed jobs are stored back.  Entries are checksummed \
                   — corrupt or truncated ones are warned about and \
                   re-simulated, never served.")
  in
  let cache_max_bytes =
    Arg.(value & opt (some int) None
         & info [ "cache-max-bytes" ] ~docv:"BYTES"
             ~doc:"Result-cache size bound; least-recently-used entries \
                   are evicted past it (default 268435456).")
  in
  let make prog jobs metrics status_file flight_dir attrib_dir workers
      retries worker_timeout respawn_budget supervise_seed chaos_kill_after
      cache_dir cache_max_bytes =
    validate
      [
        below 1 "-j" jobs;
        below 0 "--workers" workers;
        below 0 "--retries" retries;
        (if worker_timeout < 0.0 then
           Some
             (Printf.sprintf "--worker-timeout must be >= 0 (got %g)"
                worker_timeout)
         else None);
        below 0 "--respawn-budget" respawn_budget;
        Option.bind chaos_kill_after (below 0 "--chaos-kill-after");
        Option.bind cache_max_bytes (below 0 "--cache-max-bytes");
      ]
      {
        prog; jobs; metrics; status_file; flight_dir; attrib_dir; workers;
        retries; worker_timeout; respawn_budget; supervise_seed;
        chaos_kill_after; cache_dir; cache_max_bytes;
      }
  in
  Term.(term_result'
          (const make $ main_name $ jobs $ metrics_opts $ status_file
           $ flight_dir $ attrib_dir $ workers $ retries $ worker_timeout
           $ respawn_budget $ supervise_seed $ chaos_kill_after $ cache_dir
           $ cache_max_bytes))

let exec_config ?rollup ?(progress = false) ?heartbeat_every o =
  Executor.set_workers o.jobs;
  let export = start_metrics o.metrics in
  let status =
    Option.map
      (fun path -> Sweep_exp.Status.create ~path ?rollup ~workers:o.jobs ())
      o.status_file
  in
  let flight = Option.map (fun dir -> Obs.Flight.arm ~dir ()) o.flight_dir in
  Option.iter Sweep_util.Files.mkdir_p o.attrib_dir;
  (* Heartbeats default on as soon as something consumes them (a status
     file or a metrics exporter), off otherwise so plain runs keep the
     zero-telemetry hot loop. *)
  let heartbeat_every =
    match heartbeat_every with
    | Some n -> n
    | None ->
      if Option.is_some status || Option.is_some export then
        Obs.Heartbeat.default_every
      else 0
  in
  let rcache =
    Option.map
      (fun dir -> Rcache.create ?max_bytes:o.cache_max_bytes dir)
      o.cache_dir
  in
  let distribute =
    if o.workers = 0 then None
    else
      Some
        (Supervisor.policy ~retries:o.retries ~worker_timeout_s:o.worker_timeout
           ~respawn_budget:o.respawn_budget ~seed:o.supervise_seed
           ?chaos_kill_after:o.chaos_kill_after ~workers:o.workers ())
  in
  Executor.config ~progress ~heartbeat_every ?status ?flight ?export
    ?attrib_dir:o.attrib_dir ?rcache ?distribute ()

(* ---------------- epilogue ---------------- *)

(* What every ending, completed or interrupted, owes the user. *)
let wind_down o (cfg : Executor.config) =
  Supervisor.shutdown ();
  flush_metrics o.metrics cfg.Executor.export;
  Option.iter
    (fun rc ->
      let s = Rcache.stats rc in
      Printf.eprintf
        "result cache: %d hit(s), %d miss(es), %d evicted, %d corrupt\n%!"
        s.Rcache.hits s.Rcache.misses s.Rcache.evictions s.Rcache.corrupt)
    cfg.Executor.rcache

let finish ?failures o cfg =
  wind_down o cfg;
  let sup = Supervisor.stats () in
  if sup.Supervisor.degraded then
    Printf.eprintf
      "%s: degraded completion — respawn budget exhausted, finished on \
       surviving workers\n"
      o.prog;
  Exit_code.of_run ~degraded:sup.Supervisor.degraded
    ~failures:(Option.value failures ~default:sup.Supervisor.quarantined)

let protect ?rollup ?progress ?heartbeat_every ?(interrupted = fun _ -> None)
    o body =
  let fail msg = Printf.eprintf "%s: %s\n%!" o.prog msg in
  Fun.protect ~finally:Supervisor.shutdown @@ fun () ->
  try
    let cfg = exec_config ?rollup ?progress ?heartbeat_every o in
    match body cfg with
    | code -> code
    | exception e when Option.is_some (interrupted e) ->
      fail (Option.get (interrupted e));
      wind_down o cfg;
      Exit_code.interrupted
  with Sys_error msg -> fail msg; 1

(* ---------------- report options ---------------- *)

let format =
  let format_conv =
    Arg.conv
      ( (fun s ->
          match Report.format_of_string (String.lowercase_ascii s) with
          | Some f -> Ok f
          | None -> Error (`Msg ("unknown format " ^ s))),
        fun fmt f ->
          Format.pp_print_string fmt
            (match f with
            | Report.Text -> "text"
            | Report.Csv -> "csv"
            | Report.Markdown -> "md") )
  in
  Arg.(value & opt format_conv Report.Text
       & info [ "f"; "format" ] ~docv:"FMT"
           ~doc:"Report format: $(b,text), $(b,csv) or $(b,md).")

let output =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the report to FILE instead of stdout.")

let write_output out body =
  match out with
  | None -> print_string body
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc body);
    Printf.eprintf "written to %s\n" path

let journal =
  Arg.(value & opt (some file) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"journal.jsonl to add per-axis sensitivity sections.")

let tune_report ?journal frontier =
  let warn = List.iter (Printf.eprintf "warning: %s\n") in
  let journal =
    match Option.map Sweep_analyze.Tune_file.load_journal journal with
    | None -> []
    | Some (Ok (cells, warnings)) -> warn warnings; cells
    | Some (Error e) -> warn [ e ]; []
  in
  Sweep_analyze.Tune_file.load_frontier frontier
  |> Result.map (fun (entries, warnings) ->
         warn warnings;
         Sweep_analyze.Tune_file.report ~journal ~source:frontier entries)

(* ---------------- entry point ---------------- *)

let eval ?argv cmd =
  match Cmd.eval_value ?argv cmd with
  | Ok (`Ok code) -> code
  | Ok (`Help | `Version) -> Exit_code.clean
  | Error (`Parse | `Term) -> Exit_code.usage
  | Error `Exn -> Cmd.Exit.internal_error

let main cmd =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = Sweep_exp.Worker.argv_flag
  then exit (Sweep_exp.Worker.main ())
  else exit (eval cmd)
