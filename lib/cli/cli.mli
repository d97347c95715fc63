(** The command-line substrate of the binaries: every flag more than
    one of them takes, defined once, plus the wiring of the run flags
    into an {!Sweep_exp.Executor.config}, the end-of-run epilogue and
    the entry point that maps cmdliner's outcomes onto
    {!Sweep_exp.Exit_code}. *)

open Cmdliner

(** {1 Metrics} *)

type metrics_opts = {
  text : bool;  (** [--metrics]: dump the registry as text on stderr *)
  snapshot : string option;  (** [--metrics-out FILE]: JSON snapshot *)
  export : string option;  (** [--metrics-export FILE]: OpenMetrics *)
}

val metrics_opts : metrics_opts Term.t

val start_metrics : metrics_opts -> Sweep_obs.Openmetrics.exporter option
(** Enable the metrics registry if any of the three flags is given and
    open the [--metrics-export] exporter, if any. *)

val flush_metrics :
  metrics_opts -> Sweep_obs.Openmetrics.exporter option -> unit
(** End of run: final OpenMetrics flush, [--metrics-out] snapshot and
    [--metrics] text, all off stdout (which carries only the
    deterministic tables and reports). *)

(** {1 Run options} *)

type run_opts = {
  prog : string;  (** the tool name, prefix of every message *)
  jobs : int;  (** [-j]: in-process worker domains, [>= 1] *)
  metrics : metrics_opts;
  status_file : string option;
  flight_dir : string option;
  attrib_dir : string option;
  workers : int;  (** [--workers]: supervised processes, 0 = in-process *)
  retries : int;
  worker_timeout : float;
  respawn_budget : int;
  supervise_seed : int;
  chaos_kill_after : int option;
  cache_dir : string option;
  cache_max_bytes : int option;  (** [None]: {!Sweep_exp.Rcache}'s default *)
}

val run_opts : run_opts Term.t
(** The shared run flags.  Out-of-range values ([-j] below 1, any
    negative count, timeout or size) fail evaluation with a one-line
    message, which {!eval} maps to {!Sweep_exp.Exit_code.usage}. *)

val non_negative : string -> int option Term.t -> int option Term.t
(** [non_negative name t] rejects [Some n] with [n < 0] the way
    {!run_opts} rejects its own out-of-range values. *)

val exec_config :
  ?rollup:(string -> string) ->
  ?progress:bool ->
  ?heartbeat_every:int ->
  run_opts ->
  Sweep_exp.Executor.config
(** Apply [-j] and the metrics flags, then build the executor config:
    live status ([rollup] as in {!Sweep_exp.Status.create}), OpenMetrics
    exporter, flight recorder, attribution directory (created here, so
    an unwritable one fails before any job runs), result cache and
    supervision policy ([--workers 0] means none).  [heartbeat_every] defaults to
    {!Sweep_obs.Heartbeat.default_every} when a status file or exporter
    consumes heartbeats, 0 otherwise. *)

val finish : ?failures:int -> run_opts -> Sweep_exp.Executor.config -> int
(** Epilogue of a completed run: shut the supervisor down, flush the
    metrics, print the result-cache line and the degraded notice on
    stderr, and return {!Sweep_exp.Exit_code.of_run}.  [failures]
    defaults to the supervisor's quarantined job count. *)

val protect :
  ?rollup:(string -> string) ->
  ?progress:bool ->
  ?heartbeat_every:int ->
  ?interrupted:(exn -> string option) ->
  run_opts ->
  (Sweep_exp.Executor.config -> int) ->
  int
(** [protect opts body] builds {!exec_config} and runs [body] on it,
    shutting the supervisor down on every exit path.  [Sys_error] (an
    unwritable output path) becomes a one-line message and exit 1.  An
    exception that [interrupted] maps to a message is a resumable
    interruption: the message, the metrics flush and the cache line,
    then {!Sweep_exp.Exit_code.interrupted}.  Anything else is
    re-raised. *)

(** {1 Report options} *)

val format : Sweep_analyze.Report.format Term.t
(** [-f/--format]: [text] (the default), [csv] or [md]. *)

val output : string option Term.t  (** [-o/--output FILE] *)

val write_output : string option -> string -> unit
(** Write a rendered report to the [--output] file, or stdout. *)

val journal : string option Term.t
(** [--journal FILE]: the sweeptune journal behind a frontier report. *)

val tune_report :
  ?journal:string -> string -> (Sweep_analyze.Report.t, string) result
(** [tune_report ?journal frontier] loads a sweeptune frontier (plus
    the journal's per-axis sensitivity) into the report that
    [sweeptune report] and [sweeptrace tune] render.  Load warnings,
    and an unreadable journal, go to stderr. *)

(** {1 Entry point} *)

val eval : ?argv:string array -> int Cmd.t -> int
(** Evaluate [cmd] to its exit code: the command's own code, 0 for
    [--help] and [--version], {!Sweep_exp.Exit_code.usage} for parse and
    validation errors, cmdliner's internal-error code for an uncaught
    exception. *)

val main : int Cmd.t -> 'a
(** Process entry point: hand a supervisor-spawned worker
    ({!Sweep_exp.Worker.argv_flag}) to the worker loop, otherwise exit
    with [eval cmd]. *)
