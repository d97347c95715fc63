(** One-stop harness: compile a mini-language program for a design, run
    it under a power environment, and (optionally) check the final NVM
    image against the reference interpreter.

    This is the workhorse of both the test suite (crash-consistency
    properties) and the experiment harness (speedups, miss rates, energy
    breakdowns). *)

type design =
  | Nvp
  | Wt
  | Nvsram
  | Nvsram_e
  | Replay
  | Nvmr
  | Sweep

val all_designs : design list
(** In the paper's usual presentation order. *)

val design_name : design -> string

val compile_mode : design -> Sweep_compiler.Pipeline.mode
(** Plain for the JIT designs, Replay for ReplayCache, Sweep for
    SweepCache. *)

val compile :
  ?options:Sweep_compiler.Pipeline.options ->
  design ->
  Sweep_lang.Ast.program ->
  Sweep_compiler.Pipeline.compiled
(** Compiles with the design's mode (overriding [options.mode]).

    Memoised process-wide: the first call for a digest of the effective
    options and the AST runs {!Sweep_compiler.Pipeline.compile}; later
    calls return the physically same value, or re-raise the same
    exception if that compile failed.  The result is shared by every
    caller and domain and must be treated as read-only.  At most
    {!compile_memo_cap} programs stay resident (oldest evicted first).
    Each call counts [compiler.memo_hits] or [compiler.memo_misses] and
    sets the [compiler.memo_entries] gauge in {!Sweep_obs.Metrics}. *)

val compile_memo_cap : int
(** 64: a design sweep has about 24 distinct keys, a fleet one per
    cohort. *)

val clear_compile_memo : unit -> unit
(** Drop every resident program (tests that count misses). *)

val machine :
  ?config:Sweep_machine.Config.t ->
  design ->
  Sweep_isa.Program.t ->
  Sweep_machine.Machine_intf.packed

type result = {
  design : design;
  outcome : Driver.outcome;
  machine : Sweep_machine.Machine_intf.packed;
  compiled : Sweep_compiler.Pipeline.compiled;
  attrib : Sweep_obs.Attrib.t option;
      (** populated iff the run was started with [~attrib:true] *)
}

val run :
  ?config:Sweep_machine.Config.t ->
  ?options:Sweep_compiler.Pipeline.options ->
  ?max_instructions:int ->
  ?max_sim_s:float ->
  ?sim_budget_ns:float ->
  ?fault:Fault.t ->
  ?after_recovery:(now_ns:float -> unit) ->
  ?heartbeat:Sweep_obs.Heartbeat.t ->
  ?attrib:bool ->
  design ->
  power:Driver.power ->
  Sweep_lang.Ast.program ->
  result
(** [?fault]/[?after_recovery] are passed through to {!Driver.run} —
    adversarial crash injection and the differential checker's
    observation hook — as are [?sim_budget_ns] (graceful early-stop
    ceiling) and [?heartbeat] (live-telemetry beats).  [?attrib]
    (default false) arms a per-PC attribution profiler sized to the
    compiled program and returns it in the result for serialisation
    via {!Profile}. *)

val mstats : result -> Sweep_machine.Mstats.t
val cache_miss_rate : result -> float
val nvm_writes : result -> int

val final_globals :
  result -> (string * int array) list
(** The program's globals as read back from the machine's final NVM
    image. *)

val check_against_interp :
  result -> Sweep_lang.Ast.program -> (unit, string) Result.t
(** Compares {!final_globals} with the reference interpreter; the error
    describes the first mismatching global/index. *)
