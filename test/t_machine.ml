(* Tests for the shared machine layer: CPU state, the executor's ISA
   semantics and its constant-power cost accounting. *)
module Cpu = Sweep_machine.Cpu
module Exec = Sweep_machine.Exec
module Cost = Sweep_machine.Cost
module Config = Sweep_machine.Config
module Mstats = Sweep_machine.Mstats
module I = Sweep_isa.Instr
module Reg = Sweep_isa.Reg
module Program = Sweep_isa.Program
module Layout = Sweep_isa.Layout

let check = Alcotest.check

let test_cpu_lifecycle () =
  let cpu = Cpu.create ~entry:5 in
  check Alcotest.int "entry pc" 5 cpu.Cpu.pc;
  cpu.Cpu.regs.(3) <- 42;
  cpu.Cpu.pc <- 9;
  let snap = Cpu.snapshot cpu in
  cpu.Cpu.regs.(3) <- 0;
  Cpu.reset cpu ~entry:5;
  check Alcotest.int "reset zeroes" 0 cpu.Cpu.regs.(3);
  Cpu.restore cpu snap;
  check Alcotest.int "restored reg" 42 cpu.Cpu.regs.(3);
  check Alcotest.int "restored pc" 9 cpu.Cpu.pc;
  Alcotest.(check bool) "not halted after restore" false cpu.Cpu.halted

let test_cost_algebra () =
  let open Cost in
  let c = make ~ns:2.0 ~joules:3.0 ++ make ~ns:1.0 ~joules:0.5 in
  check (Alcotest.float 0.0) "ns" 3.0 c.ns;
  check (Alcotest.float 0.0) "joules" 3.5 c.joules;
  let s = scale 2.0 c in
  check (Alcotest.float 0.0) "scaled" 6.0 s.ns;
  check (Alcotest.float 0.0) "sum" 3.0 (sum [ c; zero ]).ns

(* A simple flat-memory ops record for executor tests: loads/stores hit a
   hashtable and charge a fixed per-op cost into [acc]. *)
let flat_mem acc =
  let mem = Hashtbl.create 16 in
  let ops =
    {
      Exec.load =
        (fun addr ->
          acc.Exec.Acc.ns <- acc.Exec.Acc.ns +. 10.0;
          Option.value ~default:0 (Hashtbl.find_opt mem addr));
      store =
        (fun addr v ->
          Hashtbl.replace mem addr v;
          acc.Exec.Acc.ns <- acc.Exec.Acc.ns +. 20.0);
      clwb = (fun _ -> ());
      fence = (fun () -> ());
      region_end = (fun () -> ());
    }
  in
  (mem, ops)

let assemble items =
  Program.assemble ~layout:(Layout.make ~data_limit:0x2000) ~entry:"main"
    (Program.Label "main" :: items)

(* Run through the decoded fast path (or the reference interpreter with
   [~reference:true]), summing each step's accumulator into a Cost. *)
let run_program ?(reference = false) items =
  let prog = assemble items in
  let dec = Sweep_isa.Decoded.compile prog in
  let cpu = Cpu.create ~entry:prog.Program.entry in
  let stats = Mstats.create () in
  let acc = Exec.Acc.create () in
  Exec.Acc.set_rates acc Config.default.Config.energy;
  let mem, ops = flat_mem acc in
  let total_ns = ref 0.0 and total_joules = ref 0.0 in
  let guard = ref 0 in
  while (not cpu.Cpu.halted) && !guard < 10_000 do
    if reference then Exec.step_reference cpu prog stats ops acc
    else Exec.step cpu dec stats ops acc;
    total_ns := !total_ns +. acc.Exec.Acc.ns;
    total_joules := !total_joules +. acc.Exec.Acc.joules;
    incr guard
  done;
  (cpu, mem, stats, Cost.make ~ns:!total_ns ~joules:!total_joules)

let ins l = List.map (fun x -> Program.Ins x) l

let test_exec_arith_and_branch () =
  let cpu, _, _, _ =
    run_program
      (ins
         [
           I.Movi (0, 10);
           I.Movi (1, 3);
           I.Bin (I.Sub, 2, 0, 1);
           I.Bini (I.Mul, 3, 2, 4);
           I.Set (I.Gt, 4, 3, 0);
           I.Br (I.Eq, 4, 4, "skip");
           I.Movi (5, 99);
         ]
      @ [ Program.Label "skip" ]
      @ ins [ I.Halt ])
  in
  check Alcotest.int "sub" 7 cpu.Cpu.regs.(2);
  check Alcotest.int "muli" 28 cpu.Cpu.regs.(3);
  check Alcotest.int "set" 1 cpu.Cpu.regs.(4);
  check Alcotest.int "branch taken skips" 0 cpu.Cpu.regs.(5)

let test_exec_memory () =
  let cpu, mem, stats, _ =
    run_program
      (ins
         [
           I.Movi (0, 0x100);
           I.Movi (1, 77);
           I.Store (1, 0, 8);
           I.Load (2, 0, 8);
           I.Store_abs (2, 0x200);
           I.Load_abs (3, 0x200);
           I.Halt;
         ])
  in
  check Alcotest.int "store+load" 77 cpu.Cpu.regs.(2);
  check Alcotest.int "abs roundtrip" 77 cpu.Cpu.regs.(3);
  check Alcotest.int "memory content" 77
    (Option.value ~default:0 (Hashtbl.find_opt mem 0x108));
  check Alcotest.int "stats loads" 2 stats.Mstats.loads;
  check Alcotest.int "stats stores" 2 stats.Mstats.stores

let test_exec_call_ret () =
  let prog_items =
    ins [ I.Call "fn"; I.Mov (1, 0); I.Halt ]
    @ [ Program.Label "fn" ]
    @ ins [ I.Movi (0, 5); I.Jmp_reg Reg.link ]
  in
  let cpu, _, _, _ = run_program prog_items in
  check Alcotest.int "returned value" 5 cpu.Cpu.regs.(1);
  Alcotest.(check bool) "halted" true cpu.Cpu.halted

let test_exec_movl () =
  let cpu, _, _, _ =
    run_program
      (ins [ I.Movl (0, "tag"); I.Jmp "tag" ]
      @ [ Program.Label "tag" ]
      @ ins [ I.Halt ])
  in
  check Alcotest.int "movl holds code index" 2 cpu.Cpu.regs.(0)

let test_exec_region_marker_counts () =
  let _, _, stats, _ =
    run_program (ins [ I.Nop; I.Region_end; I.Nop; I.Region_end; I.Halt ]) in
  check Alcotest.int "regions" 2 stats.Mstats.regions

let test_exec_cost_model () =
  let e = Config.default.Config.energy in
  let _, _, _, total = run_program (ins [ I.Movi (0, 1); I.Halt ]) in
  check (Alcotest.float 1e-9) "two base cycles" 2.0 total.Cost.ns;
  (* A load adds its ns plus stall power for that time. *)
  let _, _, _, with_load =
    run_program (ins [ I.Load_abs (0, 0x40); I.Halt ])
  in
  check (Alcotest.float 1e-9) "load latency added" 12.0 with_load.Cost.ns;
  let expected_joules =
    (2.0 *. e.Sweep_energy.Energy_config.e_cycle)
    +. (10.0 *. e.Sweep_energy.Energy_config.e_stall_cycle)
  in
  check (Alcotest.float 1e-18) "stall power charged" expected_joules
    with_load.Cost.joules

let test_exec_halted_is_free () =
  let prog = assemble (ins [ I.Halt ]) in
  let dec = Sweep_isa.Decoded.compile prog in
  let cpu = Cpu.create ~entry:0 in
  let stats = Mstats.create () in
  let acc = Exec.Acc.create () in
  Exec.Acc.set_rates acc Config.default.Config.energy;
  let _, ops = flat_mem acc in
  Exec.step cpu dec stats ops acc;
  Exec.step cpu dec stats ops acc;
  check (Alcotest.float 0.0) "halted step costs nothing" 0.0 acc.Exec.Acc.ns

(* The decoded fast path and the reference interpreter must agree
   bit-for-bit — registers, memory, stats and accumulated cost.  The
   full-matrix differential suite lives in t_equiv.ml; this is the
   executor-level smoke check. *)
let test_exec_reference_parity () =
  let items =
    ins
      [
        I.Movi (0, 0x100);
        I.Movi (1, 6);
        I.Bin (I.Mul, 2, 1, 1);
        I.Store (2, 0, 8);
        I.Load (3, 0, 8);
        I.Bini (I.Xor, 4, 3, 5);
        I.Set (I.Le, 5, 1, 3);
        I.Br (I.Ne, 5, 4, "end");
        I.Movi (6, 99);
      ]
    @ [ Program.Label "end" ]
    @ ins [ I.Region_end; I.Halt ]
  in
  let cpu_d, _, stats_d, cost_d = run_program items in
  let cpu_r, _, stats_r, cost_r = run_program ~reference:true items in
  check Alcotest.(array int) "regs equal" cpu_r.Cpu.regs cpu_d.Cpu.regs;
  check Alcotest.int "pc equal" cpu_r.Cpu.pc cpu_d.Cpu.pc;
  check Alcotest.int "instrs equal" stats_r.Mstats.instructions
    stats_d.Mstats.instructions;
  check Alcotest.int "regions equal" stats_r.Mstats.regions
    stats_d.Mstats.regions;
  check (Alcotest.float 0.0) "ns equal" cost_r.Cost.ns cost_d.Cost.ns;
  check (Alcotest.float 0.0) "joules equal" cost_r.Cost.joules
    cost_d.Cost.joules

(* Decoded.compile rejects malformed programs up front, so the cycle
   loop can use unchecked array reads. *)
let test_decoded_validation () =
  let good = assemble (ins [ I.Halt ]) in
  let bad_target = { good with Program.code = [| I.Jmp 99; I.Halt |] } in
  Alcotest.check_raises "jump target out of range"
    (Invalid_argument "Decoded.compile: instr 0: bad target 99") (fun () ->
      ignore (Sweep_isa.Decoded.compile bad_target))

(* The running region counters, bumped in place the way [Exec.step]
   does for two instructions, one of them a store. *)
let bump_region st ~instrs ~stores =
  st.Mstats.cur_region_instrs <- st.Mstats.cur_region_instrs + instrs;
  st.Mstats.cur_region_stores <- st.Mstats.cur_region_stores + stores

let test_mstats_histograms () =
  let st = Mstats.create () in
  bump_region st ~instrs:2 ~stores:1;
  Mstats.note_region_end st;
  check Alcotest.int "region size recorded" 1 st.Mstats.region_size_hist.(2);
  check Alcotest.int "stores recorded" 1 st.Mstats.region_store_hist.(1);
  check Alcotest.int "counters reset" 0 st.Mstats.cur_region_instrs;
  bump_region st ~instrs:1 ~stores:0;
  Mstats.reset_region_counters st;
  check Alcotest.int "partial region dropped" 0 st.Mstats.cur_region_instrs

let test_parallelism_efficiency () =
  let st = Mstats.create () in
  check (Alcotest.float 0.0) "no persistence = 100%" 100.0
    (Mstats.parallelism_efficiency st);
  st.Mstats.f.Mstats.persistence_ns <- 100.0;
  st.Mstats.f.Mstats.wait_ns <- 9.0;
  check (Alcotest.float 1e-9) "91%" 91.0 (Mstats.parallelism_efficiency st)

let test_parallelism_efficiency_edges () =
  (* Zero persistence with nonzero waits still reads 100%: the metric is
     a fraction of persistence time, not of wall time. *)
  let st = Mstats.create () in
  st.Mstats.f.Mstats.wait_ns <- 50.0;
  check (Alcotest.float 0.0) "zero persistence = 100%" 100.0
    (Mstats.parallelism_efficiency st);
  (* Fully serialised: every persisted nanosecond was waited on. *)
  st.Mstats.f.Mstats.persistence_ns <- 25.0;
  st.Mstats.f.Mstats.wait_ns <- 25.0;
  check (Alcotest.float 1e-9) "fully serialised = 0%" 0.0
    (Mstats.parallelism_efficiency st)

let test_hist_cdf_edges () =
  check
    Alcotest.(list (pair int (float 0.0)))
    "all-empty histogram" []
    (Mstats.hist_cdf (Array.make 64 0));
  check
    Alcotest.(list (pair int (float 0.0)))
    "zero-length histogram" [] (Mstats.hist_cdf [||]);
  (* A single populated bin jumps straight to 100%. *)
  let h = Array.make 8 0 in
  h.(3) <- 5;
  check
    Alcotest.(list (pair int (float 1e-9)))
    "single bin" [ (3, 100.0) ] (Mstats.hist_cdf h);
  (* Two bins: cumulative percents, empty prefix/suffix skipped. *)
  let h = Array.make 8 0 in
  h.(1) <- 1;
  h.(6) <- 3;
  check
    Alcotest.(list (pair int (float 1e-9)))
    "cumulative" [ (1, 25.0); (6, 100.0) ] (Mstats.hist_cdf h)

let test_loader () =
  let prog =
    Sweep_lang.Dsl.(
      program
        [ array_init "a" [| 1; 2 |] ]
        [ func "main" [] [ st "a" (i 0) (ld "a" (i 1)) ] ])
  in
  let c = Sweep_sim.Harness.compile Sweep_sim.Harness.Nvp prog in
  let nvm = Sweep_mem.Nvm.create () in
  Sweep_machine.Loader.load nvm c.Sweep_compiler.Pipeline.program;
  let layout = c.Sweep_compiler.Pipeline.program.Program.layout in
  check Alcotest.int "pc slot primed"
    c.Sweep_compiler.Pipeline.program.Program.entry
    (Sweep_mem.Nvm.peek_word nvm layout.Layout.ckpt_pc);
  let base =
    match c.Sweep_compiler.Pipeline.globals with
    | ("a", base, _) :: _ -> base
    | _ -> Alcotest.fail "missing global"
  in
  check Alcotest.int "initial data" 2 (Sweep_mem.Nvm.peek_word nvm (base + 4))

let suite =
  [
    Alcotest.test_case "cpu lifecycle" `Quick test_cpu_lifecycle;
    Alcotest.test_case "cost algebra" `Quick test_cost_algebra;
    Alcotest.test_case "exec arith/branch" `Quick test_exec_arith_and_branch;
    Alcotest.test_case "exec memory" `Quick test_exec_memory;
    Alcotest.test_case "exec call/ret" `Quick test_exec_call_ret;
    Alcotest.test_case "exec movl" `Quick test_exec_movl;
    Alcotest.test_case "exec region markers" `Quick test_exec_region_marker_counts;
    Alcotest.test_case "exec cost model" `Quick test_exec_cost_model;
    Alcotest.test_case "exec halted free" `Quick test_exec_halted_is_free;
    Alcotest.test_case "exec reference parity" `Quick
      test_exec_reference_parity;
    Alcotest.test_case "decoded validation" `Quick test_decoded_validation;
    Alcotest.test_case "mstats histograms" `Quick test_mstats_histograms;
    Alcotest.test_case "parallelism efficiency" `Quick test_parallelism_efficiency;
    Alcotest.test_case "parallelism efficiency edges" `Quick
      test_parallelism_efficiency_edges;
    Alcotest.test_case "hist_cdf edges" `Quick test_hist_cdf_edges;
    Alcotest.test_case "loader" `Quick test_loader;
  ]
