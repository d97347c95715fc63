(* sweepexp: regenerate the paper's tables and figures through the
   declarative job/executor layer.

     dune exec bin/sweepexp.exe                      # everything
     dune exec bin/sweepexp.exe -- quick             # skip heavy sweeps
     dune exec bin/sweepexp.exe -- fig5 tab2 -j 8    # selected, 8 workers
     dune exec bin/sweepexp.exe -- list              # available ids

   Experiments are planned first: the union of the selected experiments'
   job matrices is deduplicated and batch-executed on a domain pool
   (-j N, default the machine's recommended domain count), then each
   table renders from the shared results store — so output is
   byte-identical at any -j.  Every executed job also appends one JSON
   line to <results-dir>/<experiment>.jsonl. *)

open Cmdliner
module Cli = Sweep_cli.Cli
module Experiments = Sweep_exp.Experiments
module Results = Sweep_exp.Results
module Rcache = Sweep_exp.Rcache
module Exit_code = Sweep_exp.Exit_code

let list_experiments () =
  List.iter
    (fun e ->
      Printf.printf "%-10s %s%s\n" e.Experiments.name e.Experiments.title
        (if e.Experiments.heavy then " [heavy]" else ""))
    Experiments.all

(* --list: the planning phase without the execution phase — every job
   key the selected experiments would schedule, after dedup, with the
   experiment that owns it.  sweeptune's `plan` command is the same idea
   for synthesized design points. *)
let list_keys experiments =
  List.iter
    (fun (exp, key) -> Printf.printf "%-10s %s\n" exp key)
    (Experiments.keys experiments);
  Printf.printf "%d job(s) after dedup\n" (List.length (Experiments.plan experiments))

let main names results_dir no_jsonl progress list_only heartbeat_every
    (opts : Cli.run_opts) =
  match names with
  | [ "list" ] ->
    list_experiments ();
    0
  | names -> (
    let selection =
      match names with
      | [] ->
        if not list_only then
          Printf.printf
            "SweepCache reproduction — regenerating all tables/figures (-j %d)\n\n"
            opts.Cli.jobs;
        Ok (Experiments.all)
      | [ "quick" ] ->
        if not list_only then
          Printf.printf
            "SweepCache reproduction — quick set (heavy sweeps skipped, -j %d)\n\n"
            opts.Cli.jobs;
        Ok (List.filter (fun e -> not e.Experiments.heavy) Experiments.all)
      | names -> (
        match List.filter (fun n -> Experiments.find n = None) names with
        | [] -> Ok (List.filter_map Experiments.find names)
        | unknown -> Error unknown)
    in
    match selection with
    | Error unknown ->
      List.iter
        (fun n -> Printf.eprintf "unknown experiment %S (try: list)\n" n)
        unknown;
      Exit_code.usage
    | Ok experiments when list_only ->
      list_keys experiments;
      0
    | Ok experiments ->
      Cli.protect ~progress ?heartbeat_every opts (fun config ->
          Results.set_dir (if no_jsonl then None else Some results_dir);
          Experiments.run_many ~config experiments;
          let failures = Results.failures () in
          if failures <> [] then begin
            Printf.eprintf "\n%d job(s) failed:\n" (List.length failures);
            List.iter
              (fun f ->
                Printf.eprintf "  %s: %s\n" f.Results.key f.Results.error)
              failures
          end;
          Cli.finish ~failures:(List.length failures) opts config))

let names_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment ids (see $(b,list)); $(b,quick) for the \
                 non-heavy set; empty for everything.")

let results_dir_arg =
  Arg.(value & opt string "results"
       & info [ "results-dir" ] ~docv:"DIR"
           ~doc:"Directory receiving one <experiment>.jsonl per \
                 experiment (one JSON line per executed job).")

let no_jsonl_arg =
  Arg.(value & flag
       & info [ "no-jsonl" ] ~doc:"Disable the JSONL results sink.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Print a [k/n] line to stderr as each job finishes.")

let list_arg =
  Arg.(value & flag
       & info [ "list" ]
           ~doc:"Plan only: print every deduplicated job key the selected \
                 experiments would execute (with the owning experiment) \
                 and exit without running anything.")

let heartbeat_every_arg =
  Cli.non_negative "--heartbeat-every"
    Arg.(value & opt (some int) None
         & info [ "heartbeat-every" ] ~docv:"N"
             ~doc:"Emit an in-run heartbeat every N simulated instructions \
                   (default: 1000000 when --status-file or \
                   --metrics-export is given, otherwise disabled; 0 \
                   disables).")

(* ---------------- cache maintenance ---------------- *)

(* Offline maintenance of a --cache-dir: `cache stats` is a read-only
   stat pass, `cache purge` deletes every entry (the directory stays,
   and entries mid-write by a concurrent run survive). *)
let cache_action action dir =
  try
    let rc = Rcache.create dir in
    (match action with
    | `Stats ->
      let entries, bytes = Rcache.disk_stats rc in
      Printf.printf "%s: %d cached result(s), %d bytes\n" dir entries bytes
    | `Purge ->
      let entries, bytes = Rcache.purge rc in
      Printf.printf "%s: purged %d cached result(s), %d bytes\n" dir entries
        bytes);
    0
  with Sys_error msg ->
    Printf.eprintf "sweepexp: %s\n" msg;
    1

let cache_dir_pos =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"DIR"
           ~doc:"Result-cache directory (what runs were given as \
                 $(b,--cache-dir)).")

let cache_cmd =
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats" ~doc:"print entry count and on-disk size")
      Term.(const (cache_action `Stats) $ cache_dir_pos)
  in
  let purge_cmd =
    Cmd.v
      (Cmd.info "purge" ~doc:"delete every cached result")
      Term.(const (cache_action `Purge) $ cache_dir_pos)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"inspect or clear a persistent result cache")
    [ stats_cmd; purge_cmd ]

let doc = "regenerate the paper's tables and figures"

let cmd =
  let term =
    Term.(const main $ names_arg $ results_dir_arg $ no_jsonl_arg
          $ progress_arg $ list_arg $ heartbeat_every_arg $ Cli.run_opts)
  in
  Cmd.v (Cmd.info "sweepexp" ~doc) term

(* Positional arguments are experiment ids ("sweepexp tab1 fig5"), so
   `cache` can't be a cmdliner subcommand of the same group — it is
   dispatched on argv before cmdliner sees anything. *)
let cache_root = Cmd.group (Cmd.info "sweepexp" ~doc) [ cache_cmd ]

let () =
  Cli.main
    (if Array.length Sys.argv > 1 && Sys.argv.(1) = "cache" then cache_root
     else cmd)
