(* sweeptrace: analyse the observability layer's artefacts.

     sweeptrace report trace.jsonl --format md
     sweeptrace report trace.jsonl --metrics m.json --results results/sweepsim.jsonl
     sweeptrace diff baseline.jsonl current.jsonl --threshold 5%
     sweeptrace bench --out BENCH_sweepcache.json --baseline BENCH_sweepcache.json

   `report` renders the derived views of one JSONL trace (regions,
   stalls, buffer occupancy, outage/recovery accounting); `diff`
   compares two runs with machine-readable verdicts (exit 1 on a
   regression beyond the threshold); `bench` runs the pinned workload
   matrix and appends a schema-versioned entry to the bench history
   file. *)

open Cmdliner
module Cli = Sweep_cli.Cli
module A = Sweep_analyze

let read_err fmt = Printf.ksprintf (fun s -> Printf.eprintf "%s\n" s) fmt

(* ---------------- report ---------------- *)

let report trace_path metrics_path results_path format out =
  match A.Report.build ?metrics_path ?results_path ~trace_path () with
  | Error e ->
    read_err "sweeptrace: %s" e;
    2
  | Ok r ->
    Cli.write_output out (A.Report.render format r);
    0

let trace_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"TRACE"
           ~doc:"JSONL trace (sweepsim --trace FILE --trace-format jsonl).")

let metrics_opt =
  Arg.(value & opt (some file) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Metrics snapshot from --metrics-out to include.")

let results_opt =
  Arg.(value & opt (some file) None
       & info [ "results" ] ~docv:"FILE"
           ~doc:"Results JSONL (--results-dir output) to include.")

let report_cmd =
  let doc = "render the derived views of one JSONL trace" in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const report $ trace_pos $ metrics_opt $ results_opt $ Cli.format
          $ Cli.output)

(* ---------------- diff ---------------- *)

(* "5%" or "5" -> 5.0 *)
let threshold_conv =
  Arg.conv
    ( (fun s ->
        let s =
          if String.length s > 0 && s.[String.length s - 1] = '%' then
            String.sub s 0 (String.length s - 1)
          else s
        in
        match float_of_string_opt s with
        | Some f when f >= 0.0 -> Ok f
        | _ -> Error (`Msg ("bad threshold " ^ s))),
      fun fmt f -> Format.fprintf fmt "%g%%" f )

let threshold_opt =
  Arg.(value & opt threshold_conv 5.0
       & info [ "threshold" ] ~docv:"PCT"
           ~doc:"Regression threshold in percent (e.g. $(b,5%)).  A gated \
                 series must change strictly beyond this to produce a \
                 verdict.")

let diff base cur threshold json out =
  match A.Diff.diff_files ~threshold_pct:threshold base cur with
  | Error e ->
    read_err "sweeptrace: %s" e;
    2
  | Ok d ->
    Cli.write_output out
      (if json then A.Diff.render_json d ^ "\n" else A.Diff.render_text d);
    if A.Diff.has_regressions d then 1 else 0

let base_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"BASE"
           ~doc:"Baseline run: results JSONL, bench history file, or \
                 metrics snapshot.")

let cur_pos =
  Arg.(required & pos 1 (some file) None
       & info [] ~docv:"CURRENT" ~doc:"Current run (same formats).")

let json_flag =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit the machine-readable verdict document.")

let diff_cmd =
  let doc = "compare two runs; exit 1 on a regression beyond the threshold" in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(const diff $ base_pos $ cur_pos $ threshold_opt $ json_flag
          $ Cli.output)

(* ---------------- bench ---------------- *)

let detect_commit () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, sha when sha <> "" -> sha
      | _ -> "unknown"
    with _ -> "unknown")

let bench out commit workers baseline threshold no_append no_throughput
    min_ips_ratio =
  let commit = match commit with Some c -> c | None -> detect_commit () in
  Printf.eprintf "sweeptrace bench: matrix %s (%d jobs), commit %s\n"
    A.Bench.matrix_id
    (List.length (A.Bench.jobs ()))
    commit;
  (* Read the baseline before appending: --out and --baseline are
     usually the same file, and the fresh entry must not become its own
     baseline. *)
  let base =
    match baseline with
    | None -> Ok None
    | Some path -> (
      match A.Bench.latest path with
      | Ok e -> Ok (Some (path, e))
      | Error e -> Error e)
  in
  match base with
  | Error e ->
    read_err "sweeptrace: %s" e;
    2
  | Ok base -> (
    let results = A.Bench.run ?workers () in
    (* Wall-clock throughput runs sequentially after the (possibly
       parallel) result matrix so the timing is not skewed by worker
       contention. *)
    let throughput =
      if no_throughput then [] else A.Bench.measure_throughput ()
    in
    if throughput <> [] then begin
      List.iter
        (fun (key, ips) ->
          Printf.eprintf "  %-60s %12.0f instr/s\n" key ips)
        throughput;
      Printf.eprintf "  %-60s %12.0f instr/s\n" "geomean"
        (A.Bench.geomean throughput)
    end;
    let entry =
      { A.Bench.ts = Sweep_exp.Results.iso8601 (Unix.gettimeofday ());
        commit; results; throughput }
    in
    let append_rc =
      if no_append then 0
      else
        match A.Bench.append ~path:out entry with
        | Ok n ->
          Printf.eprintf "appended entry %d to %s\n" n out;
          0
        | Error e ->
          read_err "sweeptrace: %s" e;
          2
    in
    (* Wall-clock throughput gate: a coarse geomean ratio against the
       baseline entry, not the exact-value diff — host timing is noisy,
       so only a drop below [min_ips_ratio] of the baseline fails. *)
    let throughput_rc =
      match base with
      | Some (path, b) when throughput <> [] && b.A.Bench.throughput <> [] ->
        let cur = A.Bench.geomean throughput in
        let old = A.Bench.geomean b.A.Bench.throughput in
        Printf.eprintf
          "  throughput vs baseline: %.0f / %.0f instr/s (%.2fx)\n" cur old
          (cur /. old);
        if cur < min_ips_ratio *. old then begin
          read_err
            "sweeptrace: throughput regression vs baseline %s: geomean \
             %.0f < %.0f×%.2f instr/s"
            path cur old min_ips_ratio;
          1
        end
        else 0
      | _ -> 0
    in
    if append_rc <> 0 then append_rc
    else
      match base with
      | None -> throughput_rc
      | Some (path, base) -> (
        match
          A.Diff.compare_runs ~threshold_pct:threshold
            base.A.Bench.results results
        with
        | Error e ->
          read_err "sweeptrace: %s" e;
          2
        | Ok d ->
          print_string (A.Diff.render_text d);
          if A.Diff.has_regressions d then begin
            read_err
              "sweeptrace: regression vs baseline %s (commit %s)" path
              base.A.Bench.commit;
            1
          end
          else throughput_rc))

let bench_out_opt =
  Arg.(value & opt string "BENCH_sweepcache.json"
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Bench history file to append to.")

let commit_opt =
  Arg.(value & opt (some string) None
       & info [ "commit" ] ~docv:"SHA"
           ~doc:"Commit id stamped into the entry (default: \
                 \\$GITHUB_SHA, then git rev-parse HEAD).")

let bench_jobs_opt =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")

let baseline_opt =
  Arg.(value & opt (some file) None
       & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Diff the fresh results against this bench history's \
                 latest entry; exit 1 on a regression.")

let no_append_flag =
  Arg.(value & flag
       & info [ "no-append" ]
           ~doc:"Run and (optionally) diff without writing the history \
                 file.")

let no_throughput_flag =
  Arg.(value & flag
       & info [ "no-throughput" ]
           ~doc:"Skip the sequential wall-clock throughput measurement.")

let min_ips_ratio_opt =
  Arg.(value & opt float 0.5
       & info [ "min-ips-ratio" ] ~docv:"R"
           ~doc:"Fail when the geomean instructions/second falls below R \
                 times the baseline entry's (wall-clock gate; coarse on \
                 purpose because host timing is noisy).")

let bench_cmd =
  let doc = "run the pinned workload matrix and append to the bench history" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(const bench $ bench_out_opt $ commit_opt $ bench_jobs_opt
          $ baseline_opt $ threshold_opt $ no_append_flag
          $ no_throughput_flag $ min_ips_ratio_opt)

(* ---------------- tune ---------------- *)

(* Render sweeptune's artefacts (same code path as `sweeptune report`,
   here so trace analysis tooling covers every JSONL the repo emits). *)
let tune frontier journal format out =
  match Cli.tune_report ?journal frontier with
  | Error e ->
    read_err "sweeptrace: %s" e;
    2
  | Ok r ->
    Cli.write_output out (A.Report.render format r);
    0

let frontier_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FRONTIER"
           ~doc:"frontier.jsonl from a sweeptune explore run.")

let tune_cmd =
  let doc = "render a sweeptune frontier (and journal sensitivity)" in
  Cmd.v
    (Cmd.info "tune" ~doc)
    Term.(const tune $ frontier_pos $ Cli.journal $ Cli.format $ Cli.output)

(* ---------------- profile ---------------- *)

(* Render one per-PC attribution profile (sweepsim --attrib /
   sweepexp --attrib-dir output), or diff two of them with the
   profile-specific direction map (exit 1 when any cost series
   regresses beyond the threshold). *)
let profile profile_path diff_path top threshold json out =
  match diff_path with
  | None -> (
    match A.Profile_view.load profile_path with
    | Error e ->
      read_err "sweeptrace: %s" e;
      2
    | Ok p ->
      Cli.write_output out (A.Profile_view.render_report ~top p);
      0)
  | Some cur_path -> (
    match
      A.Profile_view.diff_files ~threshold_pct:threshold profile_path
        cur_path
    with
    | Error e ->
      read_err "sweeptrace: %s" e;
      2
    | Ok d ->
      Cli.write_output out
        (if json then A.Diff.render_json d ^ "\n" else A.Diff.render_text d);
      if A.Diff.has_regressions d then 1 else 0)

let profile_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"PROFILE"
           ~doc:"Attribution profile JSON (sweepsim --attrib FILE, or a \
                 .attrib.json from sweepexp/sweeptune --attrib-dir).  With \
                 $(b,--diff) this is the baseline.")

let profile_diff_opt =
  Arg.(value & opt (some file) None
       & info [ "diff" ] ~docv:"CURRENT"
           ~doc:"Compare PROFILE (baseline) against CURRENT instead of \
                 rendering a report: per-PC and whole-run deltas with \
                 direction-aware verdicts (time/energy/wear/re-execution \
                 lower-better); exit 1 on a regression beyond \
                 $(b,--threshold).")

let top_opt =
  Arg.(value & opt int 10
       & info [ "top" ] ~docv:"N"
           ~doc:"Rows per top-N table in the report (default 10).")

let profile_cmd =
  let doc = "render or diff per-PC attribution profiles" in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(const profile $ profile_pos $ profile_diff_opt $ top_opt
          $ threshold_opt $ json_flag $ Cli.output)

(* ---------------- postmortem ---------------- *)

let postmortem artifact_path tail format out =
  match A.Flight_file.load artifact_path with
  | Error e ->
    read_err "sweeptrace: %s" e;
    2
  | Ok pm ->
    Cli.write_output out
      (A.Report.render format
         (A.Flight_file.report ~tail ~source:artifact_path pm));
    0

let artifact_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"ARTIFACT"
           ~doc:"postmortem-*.jsonl written by the crash flight recorder \
                 (sweepexp/sweeptune --flight-dir).")

let tail_opt =
  Arg.(value & opt int 25
       & info [ "tail" ] ~docv:"N"
           ~doc:"Show the last N ring events (default 25).")

let postmortem_cmd =
  let doc = "render a crash flight-recorder artifact" in
  Cmd.v
    (Cmd.info "postmortem" ~doc)
    Term.(const postmortem $ artifact_pos $ tail_opt $ Cli.format $ Cli.output)

(* ---------------- lint ---------------- *)

(* Shape checks for the operational telemetry files CI uploads: the
   --status-file snapshot and the --metrics-export OpenMetrics text.
   Exit 1 on any problem so the CI step is a plain command. *)
let lint status_path openmetrics_path =
  if status_path = None && openmetrics_path = None then begin
    read_err "sweeptrace: lint needs --status and/or --openmetrics";
    2
  end
  else begin
    let problems = ref 0 in
    let problem fmt =
      Printf.ksprintf
        (fun s ->
          incr problems;
          Printf.eprintf "%s\n" s)
        fmt
    in
    (match status_path with
    | None -> ()
    | Some path -> (
      match A.Status_file.load path with
      | Error e -> problem "status: %s" e
      | Ok s ->
        List.iter (fun p -> problem "status: %s: %s" path p)
          (A.Status_file.validate s);
        Printf.printf
          "status: %s: ok (%d/%d jobs done, %d running, %d failed)\n" path
          s.A.Status_file.done_ s.A.Status_file.total
          s.A.Status_file.running_n s.A.Status_file.failed));
    (match openmetrics_path with
    | None -> ()
    | Some path -> (
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error e -> problem "openmetrics: %s" e
      | text -> (
        match Sweep_obs.Openmetrics.lint text with
        | Error e -> problem "openmetrics: %s: %s" path e
        | Ok families ->
          Printf.printf "openmetrics: %s: ok (%d families, %d samples)\n"
            path (List.length families)
            (List.fold_left
               (fun acc f ->
                 acc
                 + List.length f.Sweep_obs.Openmetrics.samples)
               0 families))));
    if !problems > 0 then 1 else 0
  end

let status_lint_opt =
  Arg.(value & opt (some file) None
       & info [ "status" ] ~docv:"FILE"
           ~doc:"status.json snapshot (--status-file) to validate.")

let openmetrics_lint_opt =
  Arg.(value & opt (some file) None
       & info [ "openmetrics" ] ~docv:"FILE"
           ~doc:"OpenMetrics text file (--metrics-export) to validate.")

let lint_cmd =
  let doc = "validate live-telemetry files (status.json, OpenMetrics)" in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(const lint $ status_lint_opt $ openmetrics_lint_opt)

(* ---------------- fleet ---------------- *)

let fleet fleet_path format out =
  match A.Fleet_view.load fleet_path with
  | Error e ->
    read_err "sweeptrace: %s" e;
    2
  | Ok t ->
    Cli.write_output out
      (A.Report.render format (A.Fleet_view.report ~source:fleet_path t));
    0

let fleet_pos =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FLEET"
           ~doc:"Aggregated fleet report (sweepfleet run's fleet.json).")

let fleet_cmd =
  let doc = "render a fleet.json: population distributions, cohorts, tails" in
  Cmd.v
    (Cmd.info "fleet" ~doc)
    Term.(const fleet $ fleet_pos $ Cli.format $ Cli.output)

(* ---------------- entry ---------------- *)

let cmd =
  let doc = "analyse SweepCache traces, metrics and results" in
  Cmd.group (Cmd.info "sweeptrace" ~doc)
    [ report_cmd; diff_cmd; bench_cmd; profile_cmd; tune_cmd;
      postmortem_cmd; lint_cmd; fleet_cmd ]

let () = exit (Cli.eval cmd)
