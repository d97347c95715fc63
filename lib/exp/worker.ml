(* Hidden worker mode: the half of supervised execution that runs in
   the child processes.

   The binary re-execs itself with {!argv_flag}; [main] then speaks
   {!Wire} over stdin/stdout: read a frame, simulate, answer.  A worker
   is deliberately dumb — no results store, no sinks, no cache, no
   status file: it computes summaries and streams heartbeats, and every
   stateful concern (dedup, cache, retry, quarantine, telemetry) lives
   in exactly one place, the parent.  stderr stays untouched for crash
   noise the supervisor relays verbatim. *)

let argv_flag = "--sweepcache-worker"

let send frame =
  print_string (Wire.line_of_from_worker frame);
  print_newline ();
  flush stdout

let run_job ~heartbeat_every ~attrib_dir (key : string) (spec : Jobs.t)
    sim_budget_ns =
  let observer (hb : Sweep_obs.Heartbeat.t) =
    send
      (Wire.Beat
         {
           key;
           instructions = hb.Sweep_obs.Heartbeat.instructions;
           sim_ns = Sweep_obs.Heartbeat.sim_ns hb;
           reboots = hb.Sweep_obs.Heartbeat.reboots;
           nvm_writes = hb.Sweep_obs.Heartbeat.nvm_writes;
           beats = Sweep_obs.Heartbeat.beats hb;
         })
  in
  let heartbeat =
    Sweep_obs.Heartbeat.create ~observer ~every:heartbeat_every ()
  in
  let t0 = Sweep_util.Clock.now_s () in
  match
    Exp_common.compute ~scale:spec.Jobs.scale ?sim_budget_ns ~heartbeat
      ?attrib_dir spec.Jobs.setting
      ~power:(Jobs.to_power spec.Jobs.power)
      spec.Jobs.bench
  with
  | summary ->
    send (Wire.Done { key; elapsed_s = Sweep_util.Clock.now_s () -. t0; summary })
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    send (Wire.Failed { key; error = Printexc.to_string e; backtrace })

let main () =
  (* A dying parent closes our stdout; the next send must raise (and
     end this worker), not deliver a SIGPIPE. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  Printexc.record_backtrace true;
  let heartbeat_every = ref Sweep_obs.Heartbeat.default_every in
  let attrib_dir = ref None in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> 0
    | line -> (
      match Wire.to_worker_of_line line with
      | None -> loop () (* torn/unknown frame: skip *)
      | Some Wire.Quit -> 0
      | Some (Wire.Init { heartbeat_every = every; attrib_dir = dir }) ->
        heartbeat_every := every;
        attrib_dir := dir;
        loop ()
      | Some (Wire.Job { key; spec; sim_budget_ns }) ->
        run_job ~heartbeat_every:!heartbeat_every ~attrib_dir:!attrib_dir key
          spec sim_budget_ns;
        loop ())
  in
  try loop ()
  with Sys_error _ ->
    (* stdout/stdin gone: the supervisor died or killed the pipe. *)
    1
