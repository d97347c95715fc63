(** Exit codes shared by [sweepexp], [sweeptune] and [sweepfleet] (see
    README "Exit codes"): scripts and CI branch on these, so they are
    API.  {!usage} is every binary's code for a command-line usage
    error. *)

val clean : int
(** [0] — everything ran, nothing failed. *)

val job_failures : int
(** [1] — run completed but at least one job failed or was
    quarantined as a poison job. *)

val degraded : int
(** [2] — the supervisor exhausted its respawn budget and finished the
    sweep on surviving workers (or quarantined the remainder). *)

val interrupted : int
(** [3] — the run was cut short ([sweeptune --kill-after] fault
    injection). *)

val usage : int
(** [64] — command-line usage error ([EX_USAGE]). *)

val of_run : degraded:bool -> failures:int -> int
(** Verdict for a completed run: degraded outranks job failures
    outranks clean.  (Interruption never reaches this — it exits on
    its own path.) *)
