(* Command-line substrate tests: the shared run flags parsed through
   cmdliner (defaults, out-of-range rejection), their wiring into an
   executor config (heartbeat defaults), cmdliner outcomes mapped onto
   the exit-code contract, and the epilogue's exception handling. *)

open Cmdliner
module Cli = Sweep_cli.Cli
module Executor = Sweep_exp.Executor
module Exit_code = Sweep_exp.Exit_code

let check = Alcotest.check

(* Parse argv (tool name prepended) with the shared run flags alone. *)
let parse args =
  Cmd.eval_value
    ~argv:(Array.of_list ("t" :: args))
    (Cmd.v (Cmd.info "t") Cli.run_opts)

let parse_ok args =
  match parse args with
  | Ok (`Ok o) -> o
  | _ -> Alcotest.failf "%s: did not parse" (String.concat " " args)

(* A command whose exit code is its own term's value. *)
let exit_of ?(term = Term.(const (fun _ -> 0) $ Cli.run_opts)) args =
  Cli.eval
    ~argv:(Array.of_list ("t" :: args))
    (Cmd.v (Cmd.info "t" ~version:"1") term)

let test_defaults () =
  let o = parse_ok [] in
  check Alcotest.string "prog" "t" o.Cli.prog;
  check Alcotest.int "-j" (Domain.recommended_domain_count ()) o.Cli.jobs;
  check Alcotest.int "--workers" 0 o.Cli.workers;
  check Alcotest.int "--retries" 2 o.Cli.retries;
  check (Alcotest.float 0.0) "--worker-timeout" 60.0 o.Cli.worker_timeout;
  check Alcotest.int "--respawn-budget" 8 o.Cli.respawn_budget;
  check Alcotest.int "--supervise-seed" 42 o.Cli.supervise_seed;
  check Alcotest.(option int) "--chaos-kill-after" None o.Cli.chaos_kill_after;
  check Alcotest.(option int) "--cache-max-bytes" None o.Cli.cache_max_bytes;
  List.iter
    (fun (name, v) -> check Alcotest.(option string) name None v)
    [
      ("--status-file", o.Cli.status_file);
      ("--flight-dir", o.Cli.flight_dir);
      ("--attrib-dir", o.Cli.attrib_dir);
      ("--cache-dir", o.Cli.cache_dir);
      ("--metrics-out", o.Cli.metrics.Cli.snapshot);
      ("--metrics-export", o.Cli.metrics.Cli.export);
    ];
  check Alcotest.bool "--metrics" false o.Cli.metrics.Cli.text;
  let cfg = Cli.exec_config o in
  check Alcotest.int "no heartbeat consumer, no heartbeats" 0
    cfg.Executor.heartbeat_every;
  check Alcotest.bool "exec_config of the defaults = Executor.config ()" true
    (cfg = Executor.config ())

let test_flags_parse () =
  let o =
    parse_ok
      [ "-j"; "3"; "--workers=2"; "--retries=0"; "--worker-timeout=0";
        "--respawn-budget=0"; "--supervise-seed=7"; "--chaos-kill-after=0";
        "--cache-max-bytes=0"; "--metrics" ]
  in
  check Alcotest.int "-j" 3 o.Cli.jobs;
  check Alcotest.int "--workers" 2 o.Cli.workers;
  check Alcotest.int "--retries 0 accepted" 0 o.Cli.retries;
  check (Alcotest.float 0.0) "--worker-timeout 0 accepted" 0.0
    o.Cli.worker_timeout;
  check Alcotest.int "--respawn-budget 0 accepted" 0 o.Cli.respawn_budget;
  check Alcotest.int "--supervise-seed" 7 o.Cli.supervise_seed;
  check Alcotest.(option int) "--chaos-kill-after 0 accepted" (Some 0)
    o.Cli.chaos_kill_after;
  check Alcotest.(option int) "--cache-max-bytes 0 accepted" (Some 0)
    o.Cli.cache_max_bytes;
  check Alcotest.bool "--metrics" true o.Cli.metrics.Cli.text

let out_of_range =
  [
    [ "-j"; "0" ];
    [ "--workers=-1" ];
    [ "--retries=-3" ];
    [ "--worker-timeout=-1" ];
    [ "--respawn-budget=-1" ];
    [ "--chaos-kill-after=-1" ];
    [ "--cache-max-bytes=-5" ];
  ]

let test_out_of_range_rejected () =
  List.iter
    (fun args ->
      let name = String.concat " " args in
      check Alcotest.bool (name ^ ": term error") true
        (parse args = Error `Term);
      check Alcotest.int (name ^ ": exit 64") Exit_code.usage (exit_of args))
    out_of_range;
  let heartbeat_every =
    Cli.non_negative "--heartbeat-every"
      Arg.(value & opt (some int) None & info [ "heartbeat-every" ])
  in
  let term = Term.(const (fun _ -> 0) $ heartbeat_every) in
  check Alcotest.int "--heartbeat-every -1: exit 64" Exit_code.usage
    (exit_of ~term [ "--heartbeat-every=-1" ]);
  check Alcotest.int "--heartbeat-every 0 accepted" 0
    (exit_of ~term [ "--heartbeat-every=0" ])

let test_exit_mapping () =
  check Alcotest.int "malformed int: exit 64" Exit_code.usage
    (exit_of [ "--workers"; "abc" ]);
  check Alcotest.int "unknown option: exit 64" Exit_code.usage
    (exit_of [ "--bogus" ]);
  check Alcotest.int "--version: exit 0" 0 (exit_of [ "--version" ]);
  check Alcotest.int "the term's own code" 3
    (exit_of ~term:Term.(const (fun _ -> 3) $ Cli.run_opts) []);
  check Alcotest.int "uncaught exception: cmdliner's internal error"
    Cmd.Exit.internal_error
    (exit_of ~term:Term.(const (fun _ -> failwith "boom") $ Cli.run_opts) [])

let test_heartbeat_defaults () =
  let tmp = Filename.temp_file "cli" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sweep_obs.Metrics.set_enabled false;
      Sys.remove tmp)
    (fun () ->
      List.iter
        (fun flag ->
          let o = parse_ok [ flag; tmp ] in
          check Alcotest.int (flag ^ " turns heartbeats on")
            Sweep_obs.Heartbeat.default_every
            (Cli.exec_config o).Executor.heartbeat_every;
          check Alcotest.int (flag ^ " with ~heartbeat_every:0") 0
            (Cli.exec_config ~heartbeat_every:0 o).Executor.heartbeat_every)
        [ "--status-file"; "--metrics-export" ])

exception Stop of int

let test_protect () =
  let o = parse_ok [] in
  let interrupted = function
    | Stop n -> Some (Printf.sprintf "stopped at %d" n)
    | _ -> None
  in
  check Alcotest.int "body's own code" 5
    (Cli.protect ~interrupted o (fun _ -> 5));
  check Alcotest.int "Sys_error: exit 1" 1
    (Cli.protect ~interrupted o (fun _ -> raise (Sys_error "unwritable")));
  check Alcotest.int "interruption: exit 3" Exit_code.interrupted
    (Cli.protect ~interrupted o (fun _ -> raise (Stop 4)));
  check Alcotest.bool "anything else re-raised" true
    (match Cli.protect ~interrupted o (fun _ -> raise Exit) with
    | _ -> false
    | exception Exit -> true)

let test_attrib_dir_up_front () =
  let root = Filename.temp_file "cli-attrib" ".d" in
  Sys.remove root;
  let nested = Filename.concat (Filename.concat root "a") "b" in
  check Alcotest.int "nested dir: runs" 0
    (Cli.protect (parse_ok [ "--attrib-dir"; nested ]) (fun _ -> 0));
  Alcotest.(check bool) "created before the first job" true
    (Sys.is_directory nested);
  let file = Filename.concat root "f" in
  close_out (open_out file);
  let ran = ref false in
  check Alcotest.int "dir under a file: exit 1" 1
    (Cli.protect
       (parse_ok [ "--attrib-dir"; Filename.concat file "x" ])
       (fun _ -> ran := true; 0));
  Alcotest.(check bool) "no job ran" false !ran;
  Sys.remove file;
  Sys.rmdir nested;
  Sys.rmdir (Filename.dirname nested);
  Sys.rmdir root

(* The binaries outside the run-flag substrate keep the same contract:
   run as processes (test/dune depends on them), a usage error exits
   64, not cmdliner's 124. *)
let run_binary name args =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; name ^ ".exe" ]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) null null null)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> -n

let test_binaries_usage_exit () =
  List.iter
    (fun (name, args) ->
      check Alcotest.int
        (String.concat " " (name :: args) ^ ": exit 64")
        Exit_code.usage (run_binary name args))
    [
      ("sweepsim", [ "--bogus-flag" ]);
      ("sweepsim", [ "sha"; "--scale"; "abc" ]);
      ("sweeptrace", [ "--bogus" ]);
      ("sweeptrace", [ "report" ]);
      ("sweepcheck", [ "--bogus" ]);
      ("sweepcheck", [ "sweep"; "--max-points"; "abc" ]);
      ("sweepcc", [ "--bogus" ]);
    ]

let suite =
  [
    Alcotest.test_case "run flag defaults" `Quick test_defaults;
    Alcotest.test_case "run flags parse" `Quick test_flags_parse;
    Alcotest.test_case "out-of-range values rejected" `Quick
      test_out_of_range_rejected;
    Alcotest.test_case "exit-code mapping" `Quick test_exit_mapping;
    Alcotest.test_case "heartbeat defaults" `Quick test_heartbeat_defaults;
    Alcotest.test_case "protect exit paths" `Quick test_protect;
    Alcotest.test_case "attrib dir created up front" `Quick
      test_attrib_dir_up_front;
    Alcotest.test_case "binaries exit 64 on usage errors" `Quick
      test_binaries_usage_exit;
  ]
