(* Unit and property tests for Sweep_util. *)
module Rng = Sweep_util.Rng
module Stats = Sweep_util.Stats
module Table = Sweep_util.Table

let check = Alcotest.check

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copies continue identically" (Rng.int64 a) (Rng.int64 b)

let prop_int_bounds =
  QCheck2.Test.make ~name:"Rng.int in [0, bound)" ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 5000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_float_bounds =
  QCheck2.Test.make ~name:"Rng.float in [0, bound)" ~count:500
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng 3.5 in
      x >= 0.0 && x < 3.5)

let test_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (Float.abs (mean -. 2.5) < 0.15)

let test_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_mean_geomean () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-6) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.mean []);
  check (Alcotest.float 1e-9) "empty geomean" 0.0 (Stats.geomean [])

let test_geomean_exact () =
  check (Alcotest.float 1e-9) "geomean of equal" 5.0
    (Stats.geomean [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "geomean 2,8" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let test_stddev () =
  check (Alcotest.float 1e-9) "stddev constant" 0.0 (Stats.stddev [ 4.0; 4.0 ]);
  check (Alcotest.float 1e-6) "stddev 0,2" 1.0 (Stats.stddev [ 0.0; 2.0 ])

let test_percentile () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile sorted 0.0);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile sorted 100.0);
  check (Alcotest.float 1e-9) "p50" 3.0 (Stats.percentile sorted 50.0);
  check (Alcotest.float 1e-9) "p25" 2.0 (Stats.percentile sorted 25.0)

let test_cdf_points_edges () =
  check
    Alcotest.(list (pair (float 0.0) (float 0.0)))
    "empty input" []
    (Stats.cdf_points [] 11);
  (* Singleton: every requested point is the lone sample, percents span
     0..100. *)
  let pts = Stats.cdf_points [ 42.0 ] 3 in
  check
    Alcotest.(list (pair (float 1e-9) (float 1e-9)))
    "singleton" [ (42.0, 0.0); (42.0, 50.0); (42.0, 100.0) ] pts

let prop_cdf_monotone =
  QCheck2.Test.make ~name:"cdf_points monotone" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (float_range (-100.) 100.))
    (fun samples ->
      let pts = Stats.cdf_points samples 11 in
      let rec mono = function
        | (v1, p1) :: ((v2, p2) :: _ as rest) ->
          v1 <= v2 && p1 <= p2 && mono rest
        | _ -> true
      in
      mono pts)

let test_clamp () =
  check (Alcotest.float 0.0) "below" 1.0 (Stats.clamp ~lo:1.0 ~hi:2.0 0.0);
  check (Alcotest.float 0.0) "above" 2.0 (Stats.clamp ~lo:1.0 ~hi:2.0 9.0);
  check (Alcotest.float 0.0) "inside" 1.5 (Stats.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_ratio () =
  check (Alcotest.float 0.0) "normal" 2.0 (Stats.ratio 4.0 2.0);
  Alcotest.(check bool) "div by zero" true (Stats.ratio 1.0 0.0 = infinity);
  Alcotest.(check bool) "0/0 is nan" true (Float.is_nan (Stats.ratio 0.0 0.0))

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_float_row t "beta" [ 2.5 ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  Alcotest.(check bool) "has alpha row" true
    (Thelpers.contains s "alpha");
  Alcotest.(check bool) "formats float" true
    (Thelpers.contains s "2.50")

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "only" ];
  (* Must not raise. *)
  ignore (Table.render t)

(* Random access must be the sequential stream, bit for bit: fleet
   dropout masks read it out of order and must match a replay that
   drew it front to back. *)
let test_rng_nth_float () =
  let indices = [ 0; 1; 599_999; 1_000_000 ] in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let drawn = ref (-1) and last = ref 0.0 in
      List.iter
        (fun i ->
          while !drawn < i do
            last := Rng.float rng 1.0;
            incr drawn
          done;
          let nth = Rng.nth_float ~seed i in
          check Alcotest.int64
            (Printf.sprintf "seed %d draw %d" seed i)
            (Int64.bits_of_float !last) (Int64.bits_of_float nth);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d draw %d below" seed i)
            (nth < 0.5) (Rng.nth_below ~seed i 0.5))
        indices)
    [ 0; -12345; max_int ]

let test_float_cell () =
  Alcotest.(check string) "two decimals" "3.14" (Table.float_cell 3.14159);
  Alcotest.(check string) "nan spelled" "nan" (Table.float_cell Float.nan);
  Alcotest.(check string) "large integral" "12000" (Table.float_cell 12000.0)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_int_bounds; prop_float_bounds; prop_cdf_monotone ]

let test_mkdir_p () =
  let root = Filename.temp_file "mkdirp" ".d" in
  Sys.remove root;
  let leaf = Filename.concat (Filename.concat root "a") "b" in
  Sweep_util.Files.mkdir_p leaf;
  Alcotest.(check bool) "parents and leaf created" true (Sys.is_directory leaf);
  Sweep_util.Files.mkdir_p leaf;
  Alcotest.(check bool) "existing directory is fine" true (Sys.is_directory leaf);
  let file = Filename.concat root "f" in
  close_out (open_out file);
  Alcotest.(check bool) "a path under a file fails" true
    (match Sweep_util.Files.mkdir_p (Filename.concat file "x") with
    | () -> false
    | exception Sys_error _ -> true);
  Sys.remove file;
  Sys.rmdir leaf;
  Sys.rmdir (Filename.dirname leaf);
  Sys.rmdir root

let test_memo () =
  let module Memo = Sweep_util.Memo in
  let m = Memo.create ~cap:2 () in
  let calls = ref 0 in
  let get k = Memo.find_or_add m k (fun () -> incr calls; [ k ]) in
  let a, hit_a = get 1 in
  let a', hit_a' = get 1 in
  Alcotest.(check (pair bool bool)) "miss, then hit" (false, true) (hit_a, hit_a');
  Alcotest.(check bool) "a hit is the stored value" true (a == a');
  ignore (get 2);
  ignore (get 3);
  Alcotest.(check int) "bounded" 2 (Memo.length m);
  Alcotest.(check bool) "the oldest key was evicted" false (snd (get 1));
  Alcotest.(check int) "four computations" 4 !calls;
  Alcotest.(check bool) "a raising make stores nothing" true
    (match Memo.find_or_add m 9 (fun () -> raise Exit) with
    | _ -> false
    | exception Exit -> not (snd (get 9)) && Memo.length m = 2);
  Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Memo.length m);
  Alcotest.(check bool) "cap 0 rejected" true
    (match Memo.create ~cap:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Liveness and durations rely on it: successive readings never go
   backwards, and time does pass. *)
let test_clock_monotonic () =
  let first = Sweep_util.Clock.now_s () in
  let prev = ref first in
  for _ = 1 to 100_000 do
    let t = Sweep_util.Clock.now_s () in
    if t < !prev then Alcotest.failf "clock went back: %.9f < %.9f" t !prev;
    prev := t
  done;
  Unix.sleepf 0.002;
  Alcotest.(check bool) "advances across a sleep" true
    (Sweep_util.Clock.now_s () -. first >= 0.002)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng nth_float is the stream" `Quick test_rng_nth_float;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "mean/geomean basics" `Quick test_mean_geomean;
    Alcotest.test_case "geomean exact" `Quick test_geomean_exact;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "cdf_points edges" `Quick test_cdf_points_edges;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "ratio" `Quick test_ratio;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads" `Quick test_table_pads_short_rows;
    Alcotest.test_case "float cell" `Quick test_float_cell;
    Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
    Alcotest.test_case "memo" `Quick test_memo;
    Alcotest.test_case "clock never decreases" `Quick test_clock_monotonic;
  ]
  @ qsuite
