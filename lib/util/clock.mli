(** The process's one monotonic clock.

    [CLOCK_MONOTONIC] never steps backwards or jumps when the wall clock
    is set, so it is the clock for durations, deadlines and liveness:
    job [elapsed_s], worker heartbeat timeouts, respawn back-off, trace
    timestamps relative to process start.  Wall-clock stamps meant for
    people (a result's [ts], a status file's [created_s]) stay on
    [Unix.gettimeofday]. *)

val now_s : unit -> float
(** Seconds since an arbitrary fixed origin (boot, on Linux).  Only
    differences are meaningful; successive calls never decrease. *)
