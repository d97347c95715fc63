(* Experiment-harness tests: registry integrity, caching, the job
   layer's key/dedup semantics, executor determinism across worker
   counts, the JSONL sink, and that the cheap experiments print without
   raising. *)
module C = Sweep_exp.Exp_common
module Experiments = Sweep_exp.Experiments
module Jobs = Sweep_exp.Jobs
module Executor = Sweep_exp.Executor
module Results = Sweep_exp.Results
module H = Sweep_sim.Harness
module Trace = Sweep_energy.Power_trace

let check = Alcotest.check

let test_registry_unique_names () =
  let names = List.map (fun e -> e.Experiments.name) Experiments.all in
  check Alcotest.int "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_find () =
  Alcotest.(check bool) "fig5 exists" true (Experiments.find "fig5" <> None);
  Alcotest.(check bool) "unknown is none" true (Experiments.find "zzz" = None)

let test_subset_is_subset () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in all") true (List.mem n C.all_names))
    C.subset_names

let test_run_is_cached () =
  let s = C.setting H.Nvp in
  let a = C.run ~scale:0.1 s ~power:Sweep_sim.Driver.Unlimited "sha" in
  let b = C.run ~scale:0.1 s ~power:Sweep_sim.Driver.Unlimited "sha" in
  Alcotest.(check bool) "same result object" true (a == b)

let test_speedup_positive () =
  let s = C.sweep_empty_bit in
  Alcotest.(check bool) "speedup > 1" true
    (C.speedup ~scale:0.1 s ~power:Sweep_sim.Driver.Unlimited "sha" > 1.0)

let test_settings_labels_distinct () =
  let labels = List.map (fun s -> s.C.label) C.fig5_settings in
  check Alcotest.int "distinct labels" (List.length labels)
    (List.length (List.sort_uniq compare labels))

let with_null_stdout f =
  (* The experiment printers write to stdout; keep test output clean. *)
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  flush stdout;
  Unix.dup2 null Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close null)
    f

let test_cheap_experiments_print () =
  with_null_stdout (fun () ->
      Sweep_exp.Exp_tab1.run ();
      Sweep_exp.Exp_hwcost.run ())

(* ---- job layer ---- *)

let test_job_key_matches_run_key () =
  (* A declaratively-built job and the render-time lookup must agree on
     the key, or the render phase re-simulates everything. *)
  let s = C.setting H.Sweep in
  List.iter
    (fun spec ->
      let j = Jobs.job ~exp:"t" ~scale:0.25 s ~power:spec "sha" in
      check Alcotest.string "key bridge" (Jobs.key j)
        (C.run_key ~scale:0.25 s ~power:(Jobs.to_power spec) "sha"))
    [ Jobs.unlimited; Jobs.harvested Trace.Rf_office;
      Jobs.harvested ~farads:100e-9 ~v_min:1.8 Trace.Solar ]

let test_power_id_matches_power_key () =
  List.iter
    (fun spec ->
      check Alcotest.string "power bridge" (Jobs.power_id spec)
        (C.power_key (Jobs.to_power spec)))
    [ Jobs.unlimited; Jobs.harvested Trace.Rf_home;
      Jobs.harvested ~farads:4.7e-6 Trace.Thermal ]

let test_matrix_shape () =
  let settings = [ C.setting H.Nvp; C.sweep_empty_bit ] in
  let powers = [ Jobs.unlimited; Jobs.harvested Trace.Rf_office ] in
  let m = Jobs.matrix ~exp:"t" ~powers settings [ "sha"; "dijkstra" ] in
  check Alcotest.int "cross product" (2 * 2 * 2) (List.length m)

let test_dedup_drops_duplicates () =
  let s = C.setting H.Nvp in
  let a = Jobs.job ~exp:"first" s ~power:Jobs.unlimited "sha" in
  let b = Jobs.job ~exp:"second" s ~power:Jobs.unlimited "sha" in
  let c = Jobs.job ~exp:"first" s ~power:Jobs.unlimited "dijkstra" in
  let d = Jobs.dedup [ a; b; c; b ] in
  check Alcotest.int "two unique keys" 2 (List.length d);
  (* first occurrence wins, so its exp tag owns the JSONL line *)
  check Alcotest.string "first exp kept" "first" (List.hd d).Jobs.exp;
  check Alcotest.string "order kept" (Jobs.key c) (Jobs.key (List.nth d 1))

let small_matrix () =
  Jobs.matrix ~exp:"t" ~scale:0.05
    [ C.setting H.Nvp; C.setting H.Wt; C.sweep_empty_bit ]
    [ "sha"; "dijkstra" ]

let test_executor_determinism () =
  (* The store contents must be independent of worker count: run the
     same matrix at -j 1 and -j 4 and compare full snapshots. *)
  let snap workers =
    Results.clear ();
    Executor.execute ~workers (small_matrix ());
    Results.snapshot ()
  in
  let seq = snap 1 and par = snap 4 in
  check Alcotest.int "store size" (List.length seq) (List.length par);
  List.iter2
    (fun (k1, s1) (k2, s2) ->
      check Alcotest.string "same keys" k1 k2;
      Alcotest.(check bool) ("equal summary for " ^ k1) true (s1 = s2))
    seq par

let test_executor_skips_cached () =
  Results.clear ();
  Executor.execute ~workers:2 (small_matrix ());
  let before = Results.snapshot () in
  Executor.execute ~workers:2 (small_matrix ());
  let after = Results.snapshot () in
  check Alcotest.int "no growth" (List.length before) (List.length after);
  (* keep-first: the stored summaries are the same physical objects *)
  List.iter2
    (fun (_, s1) (_, s2) ->
      Alcotest.(check bool) "physically cached" true (s1 == s2))
    before after

let test_jsonl_sink () =
  let dir = Filename.temp_file "sweepexp" ".d" in
  Sys.remove dir;
  Results.set_dir (Some dir);
  Results.clear ();
  let jobs = small_matrix () in
  Fun.protect
    ~finally:(fun () -> Results.set_dir None)
    (fun () -> Executor.execute ~workers:2 jobs);
  let file = Filename.concat dir "t.jsonl" in
  Alcotest.(check bool) "file exists" true (Sys.file_exists file);
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  check Alcotest.int "one line per job" (List.length jobs)
    (List.length !lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "looks like a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      Alcotest.(check bool) "has key field" true
        (let re = {|"key":|} in
         let rec find i =
           i + String.length re <= String.length l
           && (String.sub l i (String.length re) = re || find (i + 1))
         in
         find 0))
    !lines;
  List.iter (fun l -> Sys.remove (Filename.concat dir l))
    (Array.to_list (Sys.readdir dir));
  Unix.rmdir dir

(* 64 jobs over 16 (setting, bench) pairs; NVP and WT-VCache compile
   alike, so they need 12 distinct programs. *)
let repeated_jobs () =
  let pairs =
    List.concat_map
      (fun s -> List.map (fun b -> (s, b)) [ "sha"; "dijkstra"; "fft"; "adpcmdec" ])
      [ C.setting H.Nvp; C.setting H.Wt; C.setting H.Replay; C.sweep_empty_bit ]
  in
  List.concat [ pairs; List.rev pairs; pairs; List.rev pairs ]

let test_map_shares_compiles () =
  let misses () =
    Sweep_obs.Metrics.counter_value
      (Sweep_obs.Metrics.counter "compiler.memo_misses")
  in
  let pass workers =
    H.clear_compile_memo ();
    let m0 = misses () in
    let summaries =
      Executor.map ~workers
        (fun (s, bench) ->
          C.compute ~scale:0.02 s ~power:Sweep_sim.Driver.Unlimited bench)
        (repeated_jobs ())
    in
    (summaries, misses () - m0)
  in
  let seq, seq_misses = pass 1 in
  let par, _ = pass 4 in
  check Alcotest.int "64 jobs" 64 (List.length seq);
  check Alcotest.int "one compile per distinct program at -j 1" 12 seq_misses;
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool) (Printf.sprintf "job %d: -j 4 = -j 1" i) true (a = b))
    (List.combine seq par)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let test_nested_attrib_dir () =
  let root = Filename.temp_file "attrib" ".d" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  ignore
    (C.compute ~scale:0.02 ~attrib_dir:dir C.sweep_empty_bit
       ~power:Sweep_sim.Driver.Unlimited "sha");
  check
    (Alcotest.list Alcotest.string)
    "profile written under missing parents"
    [ ".attrib.json"; ".folded" ]
    (List.sort compare
       (List.map
          (fun f -> if Filename.check_suffix f ".folded" then ".folded" else ".attrib.json")
          (Array.to_list (Sys.readdir dir))))

let suite =
  [
    Alcotest.test_case "experiment names unique" `Quick test_registry_unique_names;
    Alcotest.test_case "experiment find" `Quick test_registry_find;
    Alcotest.test_case "subset valid" `Quick test_subset_is_subset;
    Alcotest.test_case "run cached" `Quick test_run_is_cached;
    Alcotest.test_case "speedup positive" `Quick test_speedup_positive;
    Alcotest.test_case "setting labels" `Quick test_settings_labels_distinct;
    Alcotest.test_case "tab1/hwcost print" `Quick test_cheap_experiments_print;
    Alcotest.test_case "job key matches run key" `Quick
      test_job_key_matches_run_key;
    Alcotest.test_case "power id matches power key" `Quick
      test_power_id_matches_power_key;
    Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
    Alcotest.test_case "dedup" `Quick test_dedup_drops_duplicates;
    Alcotest.test_case "executor determinism j1=j4" `Slow
      test_executor_determinism;
    Alcotest.test_case "executor skips cached" `Slow
      test_executor_skips_cached;
    Alcotest.test_case "jsonl sink" `Slow test_jsonl_sink;
    Alcotest.test_case "executor map shares compiles" `Slow
      test_map_shares_compiles;
    Alcotest.test_case "nested attrib dir" `Quick test_nested_attrib_dir;
  ]
