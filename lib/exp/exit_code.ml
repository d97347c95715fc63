(* Process exit codes shared by sweepexp, sweeptune and sweepfleet; 64
   is every binary's usage-error code.

   Documented in the README ("Exit codes") and asserted by tests and
   CI — scripts branch on these, so they are API:

     0  clean completion
     1  completed, but one or more jobs failed or were quarantined
     2  degraded completion (respawn budget exhausted; sweep finished
        on surviving workers)
     3  interrupted (sweeptune --kill-after fault injection)
     64 command-line usage error (EX_USAGE)

   Degraded outranks per-job failures: a run that lost workers has a
   capacity problem worth distinguishing even when every job that did
   run succeeded; interruption outranks both because the run never
   reached its end. *)

let clean = 0
let job_failures = 1
let degraded = 2
let interrupted = 3
let usage = 64

let of_run ~degraded:d ~failures =
  if d then degraded else if failures > 0 then job_failures else clean
