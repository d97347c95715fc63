(* Compiler tests: lowering/regalloc/emission correctness (differential
   against the interpreter), unrolling equivalence, region-formation
   invariants, and per-mode instrumentation. *)
module H = Sweep_sim.Harness
module Pipeline = Sweep_compiler.Pipeline
module Unroll = Sweep_compiler.Unroll
module Program = Sweep_isa.Program
module I = Sweep_isa.Instr

let check = Alcotest.check

let count_code prog pred =
  Array.fold_left (fun acc ins -> if pred ins then acc + 1 else acc) 0
    prog.Program.code

let test_tiny_program_runs () =
  List.iter
    (fun design ->
      ignore (Thelpers.assert_consistent design (Thelpers.tiny_program ())))
    H.all_designs

let test_plain_has_no_markers () =
  let c = H.compile H.Nvp (Thelpers.tiny_program ()) in
  check Alcotest.int "no region ends" 0
    (count_code c.Pipeline.program (fun ins -> ins = I.Region_end));
  check Alcotest.int "no fences" 0
    (count_code c.Pipeline.program (fun ins -> ins = I.Fence))

let test_sweep_has_regions_and_ckpts () =
  let c = H.compile H.Sweep (Thelpers.tiny_program ()) in
  Alcotest.(check bool) "has boundaries" true (c.Pipeline.stats.boundaries > 0);
  Alcotest.(check bool) "has ckpt stores" true (c.Pipeline.stats.ckpt_stores > 0);
  check Alcotest.int "region_end count matches stats" c.Pipeline.stats.boundaries
    (Program.region_end_count c.Pipeline.program)

let test_replay_instrumentation () =
  let c = H.compile H.Replay (Thelpers.tiny_program ()) in
  let clwbs =
    count_code c.Pipeline.program (fun ins ->
        match ins with I.Clwb _ | I.Clwb_abs _ -> true | _ -> false)
  in
  let stores = Program.static_store_count c.Pipeline.program in
  check Alcotest.int "one clwb per store" stores clwbs;
  Alcotest.(check bool) "fences present" true
    (count_code c.Pipeline.program (fun ins -> ins = I.Fence) > 0);
  check Alcotest.int "no checkpoint stores" 0 c.Pipeline.stats.ckpt_stores

let test_region_store_invariant () =
  List.iter
    (fun threshold ->
      let options = Pipeline.options ~store_threshold:threshold () in
      let c =
        Pipeline.compile ~options:{ options with Pipeline.mode = Pipeline.Sweep }
          (Thelpers.tiny_program ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "max stores <= %d" threshold)
        true
        (c.Pipeline.stats.max_region_stores <= threshold))
    [ 24; 32; 64; 128 ]

let test_threshold_too_small_rejected () =
  let options = Pipeline.options ~store_threshold:10 () in
  Alcotest.(check bool) "threshold under reserve raises" true
    (match Pipeline.compile ~options (Thelpers.tiny_program ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_static_counts_vs_plain () =
  let ast = Thelpers.tiny_program () in
  let plain = (H.compile H.Nvp ast).Pipeline.stats.static_instrs in
  let sweep = (H.compile H.Sweep ast).Pipeline.stats.static_instrs in
  let replay = (H.compile H.Replay ast).Pipeline.stats.static_instrs in
  Alcotest.(check bool) "sweep adds instructions" true (sweep > plain);
  Alcotest.(check bool) "replay adds instructions" true (replay > plain)

let test_unroll_reported () =
  let ast = Thelpers.tiny_program () in
  let c = H.compile H.Sweep ast in
  Alcotest.(check bool) "the two loops unroll" true
    (c.Pipeline.stats.unrolled_loops >= 1)

let test_unroll_off_changes_regions () =
  let ast = Thelpers.tiny_program () in
  let on = H.compile H.Sweep ast in
  let off =
    H.compile ~options:(Pipeline.options ~unroll:false ()) H.Sweep ast
  in
  check Alcotest.int "unroll off reports zero" 0 off.Pipeline.stats.unrolled_loops;
  Alcotest.(check bool) "unrolling changes the program" true
    (on.Pipeline.stats.static_instrs <> off.Pipeline.stats.static_instrs)

let test_globals_metadata () =
  let c = H.compile H.Nvp (Thelpers.tiny_program ()) in
  check
    (Alcotest.list Alcotest.string)
    "globals in order" [ "data"; "acc" ]
    (List.map (fun (n, _, _) -> n) c.Pipeline.globals);
  List.iter
    (fun (name, base, words) ->
      Alcotest.(check bool) (name ^ " sane extent") true
        (base >= Sweep_isa.Layout.default_data_base && words > 0))
    c.Pipeline.globals

let test_initial_data_loaded () =
  let open Sweep_lang.Dsl in
  let prog =
    program
      [ array_init "init" [| 7; 8; 9 |]; scalar "out" 5 ]
      [ func "main" [] [ setg "out" (g "out" + ld "init" (i 2)) ] ]
  in
  let r = Thelpers.assert_consistent H.Nvp prog in
  match H.final_globals r with
  | [ ("init", init); ("out", out) ] ->
    check (Alcotest.array Alcotest.int) "array image" [| 7; 8; 9 |] init;
    check Alcotest.int "scalar" 14 out.(0)
  | _ -> Alcotest.fail "unexpected globals"

(* A compiled program stays resident in the compile memo for the life of
   the process, so its size is memory every job pays for.  jpegenc at
   scale 4.0 is the largest input of perfbench's long-run workload, and
   its initial data (two int arrays) is most of the program. *)
let test_compiled_program_resident_size () =
  let ast =
    Sweep_workloads.Workload.program ~scale:4.0
      (Sweep_workloads.Registry.find "jpegenc")
  in
  List.iter
    (fun design ->
      let c = H.compile design ast in
      let words = Obj.reachable_words (Obj.repr c.Pipeline.program) in
      if words >= 20_000 then
        Alcotest.failf "%s jpegenc@4.0 program: %d resident words (>= 20k)"
          (H.design_name design) words)
    [ H.Nvp; H.Sweep ]

(* Differential property: compiled code on the cache-free machine agrees
   with the reference interpreter for random programs. *)
let consistent design prog =
  let r = Thelpers.run_design design prog in
  match H.check_against_interp r prog with Ok () -> true | Error _ -> false

let prop_compile_matches_interp =
  QCheck2.Test.make ~name:"compiled NVP = interpreter" ~count:60
    ~print:Gen.print_program Gen.gen_program (consistent H.Nvp)

(* The same through the full Sweep pipeline (regions + checkpoints must
   not change semantics). *)
let prop_sweep_matches_interp =
  QCheck2.Test.make ~name:"compiled SweepCache = interpreter" ~count:60
    ~print:Gen.print_program Gen.gen_program (consistent H.Sweep)

let prop_unroll_preserves_semantics =
  QCheck2.Test.make ~name:"unroll preserves semantics" ~count:80
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let unrolled = Unroll.program ~threshold:64 ~max_factor:4 prog in
      Thelpers.image_equal (Thelpers.interp_image prog)
        (Thelpers.interp_image unrolled))

let prop_region_invariant_random =
  QCheck2.Test.make ~name:"random programs obey store threshold" ~count:40
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let c = H.compile H.Sweep prog in
      c.Pipeline.stats.max_region_stores <= 64)

let suite =
  [
    Alcotest.test_case "tiny program on all designs" `Quick test_tiny_program_runs;
    Alcotest.test_case "plain mode has no markers" `Quick test_plain_has_no_markers;
    Alcotest.test_case "sweep mode instruments" `Quick
      test_sweep_has_regions_and_ckpts;
    Alcotest.test_case "replay mode instruments" `Quick test_replay_instrumentation;
    Alcotest.test_case "store-threshold invariant" `Quick test_region_store_invariant;
    Alcotest.test_case "tiny threshold rejected" `Quick
      test_threshold_too_small_rejected;
    Alcotest.test_case "static counts ordering" `Quick test_static_counts_vs_plain;
    Alcotest.test_case "unrolling reported" `Quick test_unroll_reported;
    Alcotest.test_case "unrolling toggles" `Quick test_unroll_off_changes_regions;
    Alcotest.test_case "globals metadata" `Quick test_globals_metadata;
    Alcotest.test_case "initial data loaded" `Quick test_initial_data_loaded;
    Alcotest.test_case "compiled program resident size" `Quick
      test_compiled_program_resident_size;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_compile_matches_interp;
        prop_sweep_matches_interp;
        prop_unroll_preserves_semantics;
        prop_region_invariant_random;
      ]

(* ------------------------------------------------------------------ *)
(* Inlining (paper §5 future work).                                    *)

let test_inline_reduces_boundaries () =
  let ast =
    Sweep_workloads.Workload.program ~scale:0.1
      (Sweep_workloads.Registry.find "rijndaelenc")
  in
  let on =
    H.compile ~options:(Pipeline.options ~inline:true ()) H.Sweep ast
  in
  Alcotest.(check bool) "calls were inlined" true
    (on.Pipeline.stats.inlined_calls > 0);
  (* Inlining duplicates bodies, so *static* boundaries can grow; the
     benefit is dynamic: fewer boundary executions. *)
  let dynamic_regions options =
    let r = Thelpers.run_design ~options H.Sweep ast in
    (H.mstats r).Sweep_machine.Mstats.regions
  in
  Alcotest.(check bool) "fewer dynamic regions" true
    (dynamic_regions (Pipeline.options ~inline:true ())
    < dynamic_regions (Pipeline.options ()))

let test_inline_preserves_tiny () =
  let prog = Thelpers.tiny_program () in
  let inlined = Sweep_compiler.Inline.program prog in
  Alcotest.(check bool) "same semantics" true
    (Thelpers.image_equal (Thelpers.interp_image prog)
       (Thelpers.interp_image inlined))

let prop_inline_preserves_semantics =
  QCheck2.Test.make ~name:"inlining preserves semantics" ~count:80
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let inlined = Sweep_compiler.Inline.program prog in
      Thelpers.image_equal (Thelpers.interp_image prog)
        (Thelpers.interp_image inlined))

let prop_inline_then_compile_consistent =
  QCheck2.Test.make ~name:"inline+compile = interpreter" ~count:40
    ~print:Gen.print_program Gen.gen_program (fun prog ->
      let r =
        Thelpers.run_design ~options:(Pipeline.options ~inline:true ()) H.Sweep
          prog
      in
      match H.check_against_interp r prog with Ok () -> true | Error _ -> false)

let inline_suite =
  [
    Alcotest.test_case "inline reduces boundaries" `Quick
      test_inline_reduces_boundaries;
    Alcotest.test_case "inline preserves tiny" `Quick test_inline_preserves_tiny;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_inline_preserves_semantics; prop_inline_then_compile_consistent ]

(* ------------------------------------------------------------------ *)
(* The process-wide compiled-program memo behind [Harness.compile].     *)

module Metrics = Sweep_obs.Metrics

let memo_counts () =
  ( Metrics.counter_value (Metrics.counter "compiler.memo_hits"),
    Metrics.counter_value (Metrics.counter "compiler.memo_misses") )

let memo_entries () =
  int_of_float (Metrics.gauge_value (Metrics.gauge "compiler.memo_entries"))

(* One design per compile mode. *)
let mode_designs = [ H.Nvp; H.Replay; H.Sweep ]

let fresh ?(options = Pipeline.default_options) design ast =
  Pipeline.compile ~options:{ options with Pipeline.mode = H.compile_mode design } ast

let test_memo_matches_fresh () =
  List.iter
    (fun w ->
      let ast = Sweep_workloads.Workload.program ~scale:0.08 w in
      List.iter
        (fun design ->
          let what = w.Sweep_workloads.Workload.name ^ "/" ^ H.design_name design in
          let c = H.compile design ast in
          Alcotest.(check bool) (what ^ ": equals a fresh compile") true
            (c = fresh design ast);
          Alcotest.(check bool) (what ^ ": repeat is the same value") true
            (H.compile design ast == c))
        mode_designs)
    Sweep_workloads.Registry.all

let test_memo_keys_on_mode () =
  H.clear_compile_memo ();
  let ast = Thelpers.tiny_program () in
  let plain = H.compile H.Nvp ast in
  let sweep = H.compile H.Sweep ast in
  check Alcotest.int "two modes, two entries" 2 (memo_entries ());
  Alcotest.(check bool) "sweep entry is the sweep program" true
    (sweep = fresh H.Sweep ast && plain = fresh H.Nvp ast);
  (* NVP and WT-VCache both compile in Plain mode: one shared entry. *)
  Alcotest.(check bool) "same effective options share" true
    (H.compile H.Wt ast == plain);
  check Alcotest.int "still two entries" 2 (memo_entries ())

let fft_failure () =
  let ast =
    Sweep_workloads.Workload.program ~scale:0.08
      (Sweep_workloads.Registry.find "fft")
  in
  let options =
    Pipeline.options_for ~farads:1e-6 ~store_threshold:64 ~max_unroll:1 ()
  in
  match H.compile ~options H.Sweep ast with
  | _ -> Alcotest.fail "fft at 1 uF without unrolling compiled"
  | exception e -> e

let test_memo_failure () =
  H.clear_compile_memo ();
  let h0, m0 = memo_counts () in
  let miss = fft_failure () in
  let hit = fft_failure () in
  let h1, m1 = memo_counts () in
  check Alcotest.string "the known failure"
    (Printexc.to_string (Failure "Regions: threshold scan did not converge"))
    (Printexc.to_string miss);
  check Alcotest.string "a hit raises the same message"
    (Printexc.to_string miss) (Printexc.to_string hit);
  check Alcotest.int "one miss" 1 (m1 - m0);
  check Alcotest.int "one hit" 1 (h1 - h0)

let test_memo_bounded () =
  H.clear_compile_memo ();
  let ast = Thelpers.tiny_program () in
  let options k = Pipeline.options ~instr_cap:(2_000 + k) () in
  let n = H.compile_memo_cap + 8 in
  for k = 0 to n - 1 do
    ignore (H.compile ~options:(options k) H.Sweep ast);
    Alcotest.(check bool) "at most cap entries" true
      (memo_entries () <= H.compile_memo_cap)
  done;
  check Alcotest.int "full" H.compile_memo_cap (memo_entries ());
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d still compiles correctly" k)
        true
        (H.compile ~options:(options k) H.Sweep ast
        = fresh ~options:(options k) H.Sweep ast))
    [ 0; 7; n - 1 ]

let memo_suite =
  [
    Alcotest.test_case "memo equals fresh compile" `Slow test_memo_matches_fresh;
    Alcotest.test_case "memo keys on mode" `Quick test_memo_keys_on_mode;
    Alcotest.test_case "memo replays a failure" `Quick test_memo_failure;
    Alcotest.test_case "memo bounded" `Quick test_memo_bounded;
  ]

let suite = suite @ inline_suite @ memo_suite
