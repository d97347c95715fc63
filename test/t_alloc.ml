(* Allocation-regression gate for the decoded hot path.

   With no event sink installed, the cycle loop — Exec.step dispatch,
   mem-ops, accumulator charging, and the driver's totals bookkeeping —
   must not allocate on the minor heap at all.  We run the same design
   at two workload scales and require the minor-allocation delta across
   Driver.run to stay below a small constant that does not grow with the
   instruction count (machine construction and the outcome record are
   allowed; per-instruction garbage is not). *)

module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Pipeline = Sweep_compiler.Pipeline

(* Minor words allocated during one full Driver.run of [design] on
   sha@[scale], machine construction excluded.  Heartbeats stay armed:
   the amortised countdown (and the no-sink [fire] path, which only
   mutates the heartbeat's preallocated fields) must be alloc-free too,
   so telemetry-on sweeps keep the same throughput guarantee.  The
   per-PC attribution profiler is armed as well — its unconditional
   load-add-store accumulation (including the float counters and the
   epoch/stamp/delta re-execution bookkeeping) is part of the same
   zero-allocation contract. *)
let measure design scale =
  let ast =
    Sweep_workloads.Workload.program ~scale
      (Sweep_workloads.Registry.find "sha")
  in
  let compiled = H.compile design ast in
  let m = H.machine design compiled.Pipeline.program in
  let heartbeat = Sweep_obs.Heartbeat.create ~every:50_000 () in
  let attrib =
    Sweep_obs.Attrib.create
      ~len:(Array.length compiled.Pipeline.program.Sweep_isa.Program.code)
  in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let outcome = Driver.run ~heartbeat ~attrib m ~power:Driver.Unlimited in
  let w1 = Gc.minor_words () in
  (w1 -. w0, outcome.Driver.instructions)

let check_design design =
  (* Warm-up run so one-time lazy initialisation is off the books. *)
  ignore (measure design 0.02);
  let small_words, small_instrs = measure design 0.02 in
  let big_words, big_instrs = measure design 0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: scales ran (%d -> %d instrs)" (H.design_name design)
       small_instrs big_instrs)
    true
    (big_instrs > small_instrs && small_instrs > 0);
  let per_instr = (big_words -. small_words) /. float_of_int (big_instrs - small_instrs) in
  if per_instr > 1e-3 then
    Alcotest.failf
      "%s hot loop allocates: %.4f minor words/instr (%.0f words over %d \
       instrs vs %.0f over %d)"
      (H.design_name design) per_instr big_words big_instrs small_words
      small_instrs

(* Every design, by its short test name. *)
let gated =
  [
    ("nvp", H.Nvp);
    ("wt", H.Wt);
    ("nvsram", H.Nvsram);
    ("nvsram-e", H.Nvsram_e);
    ("replay", H.Replay);
    ("nvmr", H.Nvmr);
    ("sweep", H.Sweep);
  ]

(* ---- harvested power: the jittered trace read path ---- *)

module Trace = Sweep_energy.Power_trace

(* A device trace: a view over the memoised RFHome base with every
   transform live, and dropout heavy enough (20%) that a short run is
   sure to read dropped samples. *)
let jittered_view () =
  Sweep_exp.Jobs.apply_jitter
    (Sweep_exp.Exp_common.trace_of Trace.Rf_home)
    ~shift_steps:4321 ~amp_permille:1051 ~drop_bp:2_000 ~drop_seed:17

(* The driver refreshes its cached sample once per 100 µs of simulated
   time through [source_index] over the hoisted base and factor; that
   read must not allocate, dropout draw included. *)
let test_trace_read_zero_alloc () =
  let v = jittered_view () in
  let base = Trace.base v and factor = Trace.factor v in
  let n = Trace.length v in
  let acc = Array.make 2 0.0 in
  let read i =
    let k = Trace.source_index v (i mod n) in
    acc.(0) <- (if k < 0 then 0.0 else Array.unsafe_get base k *. factor)
  in
  read 0;
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    read (i * 7);
    acc.(1) <- acc.(1) +. acc.(0)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "reads saw power" true (acc.(1) > 0.0);
  Alcotest.(check (float 0.0)) "100k trace reads allocate nothing" 0.0
    (w1 -. w0)

(* The same sha run on the view and on its materialised flat copy. *)
let test_jittered_run_matches_materialised () =
  let compiled =
    H.compile H.Sweep
      (Sweep_workloads.Workload.program ~scale:1.0
         (Sweep_workloads.Registry.find "sha"))
  in
  let run trace =
    let m = H.machine H.Sweep compiled.Pipeline.program in
    Driver.run m ~power:(Driver.harvested ~trace ~farads:470e-9 ())
  in
  let v = jittered_view () in
  let lazy_run = run v and flat_run = run (Trace.materialise v) in
  Alcotest.(check bool) "harvested run had outages" true
    (lazy_run.Driver.outages > 0);
  Alcotest.(check bool) "view and materialised trace give one outcome" true
    (lazy_run = flat_run)

let suite =
  [
    Alcotest.test_case "trace read path alloc-free" `Quick
      test_trace_read_zero_alloc;
    Alcotest.test_case "jittered run matches materialised trace" `Quick
      test_jittered_run_matches_materialised;
  ]
  @ List.map
      (fun (short, design) ->
        Alcotest.test_case (short ^ " hot loop alloc-free") `Slow (fun () ->
            check_design design))
      gated
