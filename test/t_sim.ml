(* Integration tests of the intermittent-execution driver, including the
   central crash-consistency property: under arbitrary harvested-power
   failure patterns, every design's final NVM image equals the reference
   interpreter's. *)
module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Trace = Sweep_energy.Power_trace

let check = Alcotest.check

let test_unlimited_completes () =
  let r = Thelpers.run_design H.Nvp (Thelpers.tiny_program ()) in
  Alcotest.(check bool) "completed" true r.H.outcome.Driver.completed;
  check Alcotest.int "no outages" 0 r.H.outcome.Driver.outages;
  Alcotest.(check bool) "took time" true (r.H.outcome.Driver.on_ns > 0.0)

let test_deterministic_outcomes () =
  let power = Thelpers.harvested () in
  let run () =
    (Thelpers.run_design ~power H.Sweep (Thelpers.tiny_program ())).H.outcome
  in
  let a = run () and b = run () in
  check (Alcotest.float 0.0) "same on time" a.Driver.on_ns b.Driver.on_ns;
  check Alcotest.int "same outages" a.Driver.outages b.Driver.outages;
  check (Alcotest.float 0.0) "same energy" (Driver.total_joules a)
    (Driver.total_joules b)

let test_outages_happen_on_long_runs () =
  let power = Thelpers.harvested () in
  let r =
    Thelpers.run_design ~power H.Nvp
      (Sweep_workloads.Workload.program ~scale:0.3
         (Sweep_workloads.Registry.find "sha"))
  in
  Alcotest.(check bool) "NVP suffers outages" true (r.H.outcome.Driver.outages > 0);
  Alcotest.(check bool) "off time accrues" true (r.H.outcome.Driver.off_ns > 0.0)

let test_instruction_guard () =
  let open Sweep_lang.Dsl in
  let spin =
    program
      [ scalar "x" 1 ]
      [ func "main" [] [ while_ (g "x" > i 0) [ setg "x" (g "x" + i 1) ] ] ]
  in
  Alcotest.(check bool) "stagnation raised" true
    (match
       H.run ~max_instructions:50_000 H.Nvp ~power:Driver.Unlimited spin
     with
    | _ -> false
    | exception Driver.Stagnation _ -> true)

let test_bigger_capacitor_fewer_outages () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.3
      (Sweep_workloads.Registry.find "sha")
  in
  let outages farads =
    (Thelpers.run_design ~power:(Thelpers.harvested ~farads ()) H.Nvp prog)
      .H.outcome.Driver.outages
  in
  Alcotest.(check bool) "1uF < 470nF outages" true (outages 1e-6 < outages 470e-9);
  check Alcotest.int "1mF runs outage-free" 0 (outages 1e-3)

let test_backups_counted_for_jit () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.2
      (Sweep_workloads.Registry.find "sha")
  in
  let r = Thelpers.run_design ~power:(Thelpers.harvested ()) H.Nvsram prog in
  Alcotest.(check bool) "backups happened" true (r.H.outcome.Driver.backups > 0);
  Alcotest.(check bool) "backup energy accounted" true
    (r.H.outcome.Driver.backup_joules > 0.0);
  let rs = Thelpers.run_design ~power:(Thelpers.harvested ()) H.Sweep prog in
  check Alcotest.int "sweep never backs up" 0 rs.H.outcome.Driver.backups

let test_total_helpers () =
  let r = Thelpers.run_design H.Nvp (Thelpers.tiny_program ()) in
  check (Alcotest.float 1e-9) "total = on+off"
    (r.H.outcome.Driver.on_ns +. r.H.outcome.Driver.off_ns)
    (Driver.total_ns r.H.outcome)

(* ------------------------------------------------------------------ *)
(* Crash-consistency properties.                                       *)

let crash_consistent design (prog, farads, kind) =
  let trace = Trace.make ~seed:(int_of_float (farads *. 1e12)) kind in
  let power = Driver.harvested ~trace ~farads () in
  let r = H.run design ~power prog in
  match H.check_against_interp r prog with Ok () -> true | Error _ -> false

let gen_crash_env =
  QCheck2.Gen.(
    let* prog = Gen.gen_program in
    let* farads = oneofl [ 47e-9; 100e-9; 220e-9; 470e-9 ] in
    let+ kind = oneofl Trace.[ Rf_home; Rf_office; Solar ] in
    (prog, farads, kind))

let crash_prop design count =
  QCheck2.Test.make
    ~name:(Printf.sprintf "crash consistency: %s" (H.design_name design))
    ~count
    ~print:(fun _ -> "<program+env>")
    gen_crash_env (crash_consistent design)

let crash_suite =
  List.map
    (fun d -> QCheck_alcotest.to_alcotest (crash_prop d 25))
    H.all_designs

(* Deterministic per-benchmark spot checks under failures, cheap scale. *)
let spot_bench_crash name design () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.15
      (Sweep_workloads.Registry.find name)
  in
  let r = H.run design ~power:(Thelpers.harvested ~farads:220e-9 ()) prog in
  match H.check_against_interp r prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let spot_suite =
  List.concat_map
    (fun bench ->
      List.map
        (fun design ->
          Alcotest.test_case
            (Printf.sprintf "crash spot: %s on %s" bench (H.design_name design))
            `Slow (spot_bench_crash bench design))
        [ H.Sweep; H.Replay; H.Nvsram; H.Nvmr ])
    [ "adpcmdec"; "dijkstra"; "fft"; "patricia" ]

let suite =
  [
    Alcotest.test_case "unlimited completes" `Quick test_unlimited_completes;
    Alcotest.test_case "deterministic" `Quick test_deterministic_outcomes;
    Alcotest.test_case "outages on long runs" `Quick test_outages_happen_on_long_runs;
    Alcotest.test_case "instruction guard" `Quick test_instruction_guard;
    Alcotest.test_case "capacitor scaling" `Quick test_bigger_capacitor_fewer_outages;
    Alcotest.test_case "jit backups counted" `Quick test_backups_counted_for_jit;
    Alcotest.test_case "total helpers" `Quick test_total_helpers;
  ]
  @ crash_suite @ spot_suite

(* ------------------------------------------------------------------ *)
(* Backup-failure path: a capacitor too small for NVSRAM-E's worst-case
   backup forces failed backups and stale-shadow recoveries; the run
   must still make forward progress and stay consistent. *)

let test_failed_backups_still_progress () =
  let prog =
    Sweep_workloads.Workload.program ~scale:0.1
      (Sweep_workloads.Registry.find "adpcmdec")
  in
  let r = H.run H.Nvsram_e ~power:(Thelpers.harvested ~farads:150e-9 ()) prog in
  Alcotest.(check bool) "completed" true r.H.outcome.Driver.completed;
  (match H.check_against_interp r prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "some backups were infeasible" true
    (r.H.outcome.Driver.failed_backups >= 0)

let test_nvmr_rollback_reexecutes () =
  (* NvMR re-runs the continue-band work after each death; its dynamic
     instruction count under failures must exceed the failure-free one. *)
  let prog =
    Sweep_workloads.Workload.program ~scale:0.15
      (Sweep_workloads.Registry.find "sha")
  in
  let free = H.run H.Nvmr ~power:Driver.Unlimited prog in
  let harv = H.run H.Nvmr ~power:(Thelpers.harvested ()) prog in
  Alcotest.(check bool) "rollbacks re-execute" true
    (harv.H.outcome.Driver.instructions > free.H.outcome.Driver.instructions)

let test_sweep_never_reexecutes_committed_work () =
  (* SweepCache re-executes at most the interrupted region per outage:
     dynamic instructions grow only mildly under failures. *)
  let prog =
    Sweep_workloads.Workload.program ~scale:0.15
      (Sweep_workloads.Registry.find "sha")
  in
  let free = H.run H.Sweep ~power:Driver.Unlimited prog in
  let harv = H.run H.Sweep ~power:(Thelpers.harvested ()) prog in
  let extra =
    float_of_int
      (harv.H.outcome.Driver.instructions - free.H.outcome.Driver.instructions)
    /. float_of_int free.H.outcome.Driver.instructions
  in
  Alcotest.(check bool) "re-execution under 5%" true (extra < 0.05)

(* Machines must stay O(touched state): after a full harvested run the
   NVM may only hold pages under the data segment and the checkpoint
   array.  A setup or recovery path that fills or clears the whole
   address space would make every page resident and fail here. *)
let test_nvm_residency_bounded () =
  let module Layout = Sweep_isa.Layout in
  let prog =
    Sweep_workloads.Workload.program ~scale:0.08
      (Sweep_workloads.Registry.find "sha")
  in
  let page_bytes = 4096 in
  let pages_spanned lo hi = ((hi - 1) / page_bytes) - (lo / page_bytes) + 1 in
  List.iter
    (fun design ->
      let r = H.run design ~power:(Thelpers.harvested ()) prog in
      let name = H.design_name design in
      Alcotest.(check bool) (name ^ " completed") true r.H.outcome.Driver.completed;
      let layout = r.H.compiled.Sweep_compiler.Pipeline.program.Sweep_isa.Program.layout in
      let bound =
        pages_spanned layout.Layout.data_base layout.Layout.data_limit
        + pages_spanned layout.Layout.ckpt_base
            (layout.Layout.ckpt_base + Layout.line_bytes)
      in
      let resident =
        Sweep_mem.Nvm.resident_pages (Sweep_machine.Machine_intf.nvm r.H.machine)
      in
      if resident < 1 || resident > bound then
        Alcotest.failf "%s: %d resident NVM pages, expected 1..%d" name resident
          bound)
    [ H.Sweep; H.Nvp ]

let suite =
  suite
  @ [
      Alcotest.test_case "nvm residency bounded" `Quick test_nvm_residency_bounded;
      Alcotest.test_case "failed backups progress" `Quick
        test_failed_backups_still_progress;
      Alcotest.test_case "nvmr rollback cost" `Quick test_nvmr_rollback_reexecutes;
      Alcotest.test_case "sweep minimal re-execution" `Quick
        test_sweep_never_reexecutes_committed_work;
    ]
