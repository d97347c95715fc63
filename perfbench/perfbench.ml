(* End-to-end and per-layer benchmark of the SweepCache simulation stack.

   [perfbench run --workload W --seed N --seconds S --trace T --dir D]
   runs one workload and prints one JSON object on stdout: the metrics,
   each with its unit and a note, and one digest per checked operation
   (a line per pass goes to stderr).  [run.py] builds
   this binary, compares the digests with [expected.json] and prints the
   result line.  [perfbench record --workload W --dir D] prints the
   digests of every input a seed can select (how [expected.json] is
   made).

   The benchmark only calls the public entry points of the libraries;
   every span is taken here, around the calls into each layer.  See
   README.md for why each workload exists and which metric each layer
   should move. *)

module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module M = Sweep_machine.Machine_intf
module Trace = Sweep_energy.Power_trace
module Exp = Sweep_exp.Exp_common
module Jobs = Sweep_exp.Jobs
module Executor = Sweep_exp.Executor
module Results = Sweep_exp.Results
module Rcache = Sweep_exp.Rcache
module Wire = Sweep_exp.Wire
module Supervisor = Sweep_exp.Supervisor
module Worker = Sweep_exp.Worker
module Space = Sweep_tune.Space
module Fleet = Sweep_fleet
module Json = Sweep_analyze.Json
module Metrics = Sweep_obs.Metrics
module Workload = Sweep_workloads.Workload
module Registry = Sweep_workloads.Registry
module Pipeline = Sweep_compiler.Pipeline

(* Load comes from one process with at most this many domains or worker
   processes (the hosts this is tuned for have two cores). *)
let workers = 2

(* Set-up takes a few milliseconds, so it is timed in blocks of
   [setup_block] set-ups: [setup_blocks] blocks before the first pass and
   [setup_blocks_per_pass] before every pass, so that the samples span
   the run as the passes do.  The median time per set-up is reported. *)
let setup_block = 5
let setup_blocks = 3
let setup_blocks_per_pass = 2

(* design-sweep: a seeded subset of the tuner's pinned space, each point
   crossed with three kernels, at a scale where one job is short, so
   per-job set-up (machine instantiation) dominates.  The subset takes
   the same share of every (max_unroll, farads) stratum, so each seed
   keeps the full space's mix, including its deterministic fft compile
   failures (max_unroll 1 at 1 uF). *)
let ds_scale = 0.08
let ds_per_stratum = 15
let ds_benches = [ "sha"; "dijkstra"; "fft" ]

(* fleet: a population shaped like CI's ci-500 spec (sha@0.3, sweep,
   RFOffice, full jitter envelope, base/bigcap cohorts). *)
let fleet_devices = 64

(* long-run and fleet inputs depend on [seed mod variants]; every variant
   has a recorded digest, so every seed is checked exactly. *)
let variants = 64
let variant_of seed = ((seed mod variants) + variants) mod variants

(* long-run: large inputs, so Driver.run dominates.  The jobs run on the
   two-domain pool: one job at a time, single-threaded throughput moved
   by 40% between host states that last minutes, twice as much as the
   pooled workloads did.  Kernels and designs are listed longest job
   first, so the pool's dynamic queue ends each pass with short jobs. *)
let lr_scale = 4.0
let lr_benches = [ "dijkstra"; "rijndaelenc"; "fft"; "jpegenc"; "sha" ]

let lr_settings = [ Exp.sweep_empty_bit; Exp.setting H.Nvp ]

(* ---------------------------------------------------------------- *)
(* Clock, host counters, small helpers *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let md5 s = Digest.to_hex (Digest.string s)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  Array.to_list a

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun root what ->
    incr n;
    let d = Filename.concat root (Printf.sprintf "%s-%d" what !n) in
    rm_rf d;
    d

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of process [pid], in MiB. *)
let peak_rss_mb pid =
  let line =
    In_channel.with_open_text
      (Printf.sprintf "/proc/%s/status" pid)
      In_channel.input_lines
    |> List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* The live child processes of this process (the supervisor's workers). *)
let children () =
  let me = Unix.getpid () in
  let parent_of pid =
    (* /proc/PID/stat: "pid (comm) state ppid ..."; comm may hold spaces. *)
    let stat = read_file (Printf.sprintf "/proc/%s/stat" pid) in
    let after = String.rindex stat ')' + 2 in
    Scanf.sscanf
      (String.sub stat after (String.length stat - after))
      "%c %d" (fun _ ppid -> ppid)
  in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter (fun e ->
         e <> "" && String.for_all (fun c -> c >= '0' && c <= '9') e
         && match parent_of e with ppid -> ppid = me | exception _ -> false)

type host = {
  user : float;
  sys : float;
  children : float;
  major : int;
  minor_w : float;
  major_w : float;
}

let host () =
  let t = Unix.times () in
  let g = Gc.quick_stat () in
  {
    user = t.Unix.tms_utime;
    sys = t.Unix.tms_stime;
    children = t.Unix.tms_cutime +. t.Unix.tms_cstime;
    major = g.Gc.major_collections;
    minor_w = g.Gc.minor_words;
    major_w = g.Gc.major_words;
  }

(* ---------------------------------------------------------------- *)
(* Spans: kept in memory, written once at exit. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  req : string;  (* the job key *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let spans_lock = Mutex.create ()
let next_span = Atomic.make 1

let with_span ?(parent = 0) ~req name f =
  let id = Atomic.fetch_and_add next_span 1 in
  let t0 = now () in
  let close () =
    let s = { id; parent; name; req; t0; t1 = now () } in
    Mutex.protect spans_lock (fun () -> spans := s :: !spans)
  in
  match f id with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let write_spans path ~origin =
  let item s =
    Json.Obj
      [
        ("id", Json.Num (float_of_int s.id));
        ("parent", Json.Num (float_of_int s.parent));
        ("name", Json.Str s.name);
        ("req", Json.Str s.req);
        ("start_s", Json.Num (s.t0 -. origin));
        ("end_s", Json.Num (s.t1 -. origin));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.render (Json.List (List.rev_map item !spans)));
      output_char oc '\n')

(* Self time per span name: duration minus the part its children cover
   (children never overlap their parent's other children here). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let tot, n =
        Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (tot +. self, n + 1))
    !spans;
  fun name -> Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name name)

(* ---------------------------------------------------------------- *)
(* Jobs, decomposed into layer calls *)

type job = {
  key : string;
  exp : string;
  setting : Exp.setting;
  power_id : string;
  bench : string;
  scale : float;
  power : unit -> Driver.power;
}

let of_jobs (j : Jobs.t) =
  {
    key = Jobs.key j;
    exp = j.Jobs.exp;
    setting = j.Jobs.setting;
    power_id = Jobs.power_id j.Jobs.power;
    bench = j.Jobs.bench;
    scale = j.Jobs.scale;
    power = (fun () -> Jobs.to_power j.Jobs.power);
  }

(* The results-JSONL line with the wall-clock fields pinned: every
   simulated number of the summary, rendered canonically. *)
let summary_line j s =
  Results.json_line ~ts:0.0 ~exp:j.exp ~key:j.key
    ~design:(H.design_name j.setting.Exp.design)
    ~label:j.setting.Exp.label ~power:j.power_id ~bench:j.bench
    ~scale:j.scale ~elapsed_s:0.0 s

let digest_of j = function
  | Ok s -> md5 (summary_line j s)
  | Error msg -> md5 ("error:" ^ msg)

let instructions = function
  | Ok (s : Results.summary) -> s.Results.outcome.Driver.instructions
  | Error _ -> 0

(* Compiles whose (bench, scale, design, options) were already compiled
   in the same pass — what a compiled-program memo would serve. *)
let compiled_seen = Hashtbl.create 64
let compiles = ref 0
let compiles_reused = ref 0
let compile_lock = Mutex.create ()

let note_compile j =
  let k =
    (j.bench, j.scale, H.design_name j.setting.Exp.design, j.setting.Exp.options)
  in
  Mutex.protect compile_lock (fun () ->
      incr compiles;
      if Hashtbl.mem compiled_seen k then incr compiles_reused
      else Hashtbl.replace compiled_seen k ())

(* One job as the layers [Exp_common.compute] and the executor run it,
   each call in its own span under the job span.  [after] runs inside
   the job span and may turn the outcome into an error (the workers
   workload's wire and cache steps). *)
type child = { sp : 'a. string -> (unit -> 'a) -> 'a }

let traced_job ?(after = fun _ r -> r) j =
  with_span ~req:j.key "job" (fun job ->
      let child =
        { sp = (fun name f -> with_span ~parent:job ~req:j.key name (fun _ -> f ())) }
      in
      let sp = child.sp in
      let r =
        match
          let power = sp "energy.power" j.power in
          let ast =
            sp "workloads.build" (fun () ->
                Workload.program ~scale:j.scale (Registry.find j.bench))
          in
          note_compile j;
          let compiled =
            sp "compiler.compile" (fun () ->
                H.compile ~options:j.setting.Exp.options j.setting.Exp.design
                  ast)
          in
          let m =
            sp "machine.instantiate" (fun () ->
                H.machine ~config:j.setting.Exp.config j.setting.Exp.design
                  compiled.Pipeline.program)
          in
          let outcome = sp "sim.simulate" (fun () -> Driver.run m ~power) in
          sp "exp.summarize" (fun () ->
              let s =
                {
                  Results.outcome;
                  mstats = M.mstats m;
                  miss_rate =
                    (match M.cache m with
                    | Some c -> Sweep_mem.Cache.miss_rate c
                    | None -> 0.0);
                  nvm_writes = Sweep_mem.Nvm.write_events (M.nvm m);
                }
              in
              ignore (summary_line j s);
              s)
        with
        | s -> Ok s
        | exception e -> Error (Printexc.to_string e)
      in
      after child r)

(* Outcome of each job of an [Executor.execute] batch, from the store. *)
let collect jobs =
  let failed = Hashtbl.create 16 in
  List.iter
    (fun (f : Results.failure) -> Hashtbl.replace failed f.Results.key f.Results.error)
    (Results.failures ());
  List.map
    (fun j ->
      match Results.find j.key with
      | Some s -> (j, Ok s)
      | None ->
        ( j,
          Error
            (Option.value ~default:"missing from the results store"
               (Hashtbl.find_opt failed j.key)) ))
    jobs

(* ---------------------------------------------------------------- *)
(* Passes *)

type op = { op_id : string; digest : string; count : int }

type pass = {
  wall : float;  (* timed seconds of the (cold) pass *)
  items : int;  (* jobs or devices attempted *)
  failed : int;  (* jobs or devices that failed *)
  instr : int;  (* instructions simulated *)
  warm_wall : float;  (* design-sweep-workers: the cache-served pass *)
  warm_items : int;
  fold : float;  (* fleet: traced sketch fold + journal seconds *)
  ops : op list;
}

let no_pass =
  { wall = 0.0; items = 0; failed = 0; instr = 0; warm_wall = 0.0;
    warm_items = 0; fold = 0.0; ops = [] }

let job_pass ?(id = fun j -> j.key) ~wall results =
  {
    no_pass with
    wall;
    items = List.length results;
    failed = List.length (List.filter (fun (_, r) -> Result.is_error r) results);
    instr = isum_by (fun (_, r) -> instructions r) results;
    ops =
      List.map (fun (j, r) -> { op_id = id j; digest = digest_of j r; count = 1 })
        results;
  }

(* A workload: how to set it up once (timed in blocks), what
   to warm outside any timing, and one untraced and one traced pass. *)
type workload = {
  setup : unit -> unit;
  warm : unit -> unit;
  pass : string -> pass;  (* argument: scratch directory *)
  traced : string -> pass;
  finish : unit -> unit;
}

let trace_make_times = ref []

let make_trace ?seed kind =
  let t, dt = timed (fun () -> Trace.make ?seed kind) in
  trace_make_times := dt :: !trace_make_times;
  t

(* --- design-sweep and design-sweep-workers --- *)

let ds_jobs ~seed =
  let st = Random.State.make [| seed; 0xd5 |] in
  let all = Space.points Space.default in
  let stratum (p : Space.point) = (p.Space.max_unroll, p.Space.farads) in
  let points =
    List.sort_uniq compare (List.map stratum all)
    |> List.concat_map (fun k ->
           take ds_per_stratum
             (shuffle st (List.filter (fun p -> stratum p = k) all)))
  in
  List.concat_map
    (fun p -> List.map (fun b -> Space.job ~scale:ds_scale p b) ds_benches)
    points
  |> shuffle st

let ds_all_jobs () =
  List.concat_map
    (fun p -> List.map (fun b -> Space.job ~scale:ds_scale p b) ds_benches)
    (Space.points Space.default)

let execute_pass ?config jobs =
  Results.clear ();
  let (), wall = timed (fun () -> Executor.execute ~workers ?config jobs) in
  (collect (List.map of_jobs jobs), wall)

let design_sweep ~seed =
  let jobs = ds_jobs ~seed in
  {
    setup =
      (fun () ->
        ignore (ds_jobs ~seed);
        ignore (make_trace Trace.Rf_office));
    warm = (fun () -> List.iter (fun j -> Jobs.prewarm j.Jobs.power) jobs);
    pass =
      (fun _ ->
        let results, wall = execute_pass jobs in
        job_pass ~wall results);
    traced =
      (fun _ ->
        let js = List.map of_jobs jobs in
        let results, wall =
          timed (fun () ->
              Executor.map ~workers (fun j -> (j, traced_job j)) js)
        in
        job_pass ~wall results);
    finish = ignore;
  }

(* Start [n] worker processes of this binary and let each read its Init
   frame and exit on Quit: the process start the supervised path pays. *)
let spawn_workers n =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pids =
    List.init n (fun _ ->
        let r, w = Unix.pipe ~cloexec:true () in
        let exe = Sys.executable_name in
        let pid = Unix.create_process exe [| exe; Worker.argv_flag |] r null Unix.stderr in
        Unix.close r;
        let oc = Unix.out_channel_of_descr w in
        output_string oc
          (Wire.line_of_to_worker
             (Wire.Init { heartbeat_every = 0; attrib_dir = None }));
        output_char oc '\n';
        output_string oc (Wire.line_of_to_worker Wire.Quit);
        output_char oc '\n';
        close_out oc;
        pid)
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  Unix.close null

let design_sweep_workers ~seed =
  let jobs = ds_jobs ~seed in
  let policy = Supervisor.policy ~workers () in
  let base = design_sweep ~seed in
  {
    base with
    setup =
      (fun () ->
        base.setup ();
        spawn_workers workers);
    pass =
      (fun dir ->
        let dir = fresh_dir dir "rcache" in
        let config =
          Executor.config ~rcache:(Rcache.create dir) ~distribute:policy ()
        in
        let cold, wall = execute_pass ~config jobs in
        let warm, warm_wall = execute_pass ~config jobs in
        rm_rf dir;
        let c = job_pass ~wall cold and w = job_pass ~wall:warm_wall warm in
        {
          c with
          failed = c.failed + w.failed;
          warm_wall;
          warm_items = w.items;
          ops = c.ops @ w.ops;
        });
    traced =
      (fun dir ->
        let dir = fresh_dir dir "rcache" in
        let rc = Rcache.create dir in
        (* The rest of one supervised job: the worker's result frame
           through the wire codec, the cache store of the cold pass and
           the cache lookup that serves the warm pass. *)
        let step j { sp } r =
          let frame =
            match r with
            | Ok summary -> Wire.Done { key = j.key; elapsed_s = 0.0; summary }
            | Error error -> Wire.Failed { key = j.key; error; backtrace = "" }
          in
          let same a b = digest_of j (Ok a) = digest_of j (Ok b) in
          let wired =
            sp "exp.wire" (fun () ->
                Wire.from_worker_of_line (Wire.line_of_from_worker frame))
          in
          match (r, wired) with
          | Error _, Some (Wire.Failed _) -> r
          | Ok s, Some (Wire.Done { summary; _ }) when same s summary -> (
            let digest = Rcache.config_digest j.setting in
            sp "exp.rcache_store" (fun () ->
                Rcache.store rc ~key:j.key ~digest ~elapsed_s:0.0 s);
            match
              sp "exp.rcache_find" (fun () ->
                  Rcache.find rc ~key:j.key ~digest)
            with
            | Some (cached, _) when same s cached -> r
            | _ -> Error "rcache: the stored result was not served back")
          | _ -> Error "wire: the result frame did not round-trip"
        in
        let results, wall =
          timed (fun () ->
              Executor.map ~workers
                (fun j -> (j, traced_job ~after:(step j) j))
                (List.map of_jobs jobs))
        in
        rm_rf dir;
        job_pass ~wall results);
    finish = Supervisor.shutdown;
  }

(* --- fleet --- *)

let fleet_spec_json ~seed =
  Printf.sprintf
    {|{"schema_version": 1, "name": "perf-fleet", "devices": %d, "seed": %d,
  "bench": "sha", "scale": 0.3, "design": "sweep", "trace": "rfoffice",
  "jitter": {"max_shift_steps": 600000, "amp_spread_permille": 200,
             "max_drop_bp": 300},
  "cohorts": [
    {"name": "base", "weight": 3, "farads": 100e-9, "cache_bytes": 4096,
     "assoc": 2, "buffer_entries": 64},
    {"name": "bigcap", "weight": 1, "farads": 220e-9, "cache_bytes": 4096,
     "assoc": 2, "buffer_entries": 64}]}|}
    fleet_devices seed

let fleet_spec ~seed =
  match Json.parse (fleet_spec_json ~seed) with
  | Error e -> failwith ("fleet spec: " ^ e)
  | Ok js -> (
    match Fleet.Spec.of_json js with
    | Error e -> failwith ("fleet spec: " ^ e)
    | Ok spec -> spec)

let fleet_op ~variant spec bytes =
  { op_id = Printf.sprintf "fleet:seed%d" variant; digest = md5 bytes;
    count = spec.Fleet.Spec.devices }

(* Runner.run clears the results store after every chunk, so the fleet
   counts simulated instructions with Driver.run's own metrics counter
   (the fleet workload enables the registry). *)
let sim_instructions = Metrics.counter "driver.instructions"

let fleet_untraced ~variant spec dir =
  let dir = fresh_dir dir "fleet" in
  let before = Metrics.counter_value sim_instructions in
  let o, wall =
    timed (fun () ->
        match Fleet.Runner.run ~workers ~dir spec with
        | Ok o -> o
        | Error e -> failwith ("Runner.run: " ^ e))
  in
  let bytes = read_file o.Fleet.Runner.report_path in
  rm_rf dir;
  {
    no_pass with
    wall;
    items = spec.Fleet.Spec.devices;
    failed = o.Fleet.Runner.state.Fleet.Sketch.failed_total;
    instr = Metrics.counter_value sim_instructions - before;
    ops = [ fleet_op ~variant spec bytes ];
  }

(* Runner.run decomposed: per chunk, the device jobs on the domain pool
   (each job traced layer by layer), then the sequential sketch fold and
   the cumulative journal line; finally the fleet.json bytes. *)
let fleet_traced ~variant spec dir =
  let dir = fresh_dir dir "fleet-traced" in
  Unix.mkdir dir 0o755;
  let journal = open_out (Filename.concat dir "fleet.journal") in
  let digest = Fleet.Spec.digest spec in
  let state = Fleet.Sketch.create () in
  let fold = ref 0.0 in
  let results = ref [] in
  let (), wall =
    timed (fun () ->
        let rec loop d =
          if d < spec.Fleet.Spec.devices then begin
            let hi = min spec.Fleet.Spec.devices (d + Fleet.Runner.default_chunk) in
            let devs =
              List.init (hi - d) (fun i -> Fleet.Device.instantiate spec ~id:(d + i))
            in
            let js =
              Jobs.dedup (List.map (Fleet.Device.job spec) devs) |> List.map of_jobs
            in
            let rs = Executor.map ~workers (fun j -> (j, traced_job j)) js in
            results := List.rev_append rs !results;
            let by_key = Hashtbl.create 256 in
            List.iter (fun (j, r) -> Hashtbl.replace by_key j.key r) rs;
            let (), dt =
              timed (fun () ->
                  with_span ~req:"fleet" "fleet.fold" (fun _ ->
                      List.iter
                        (fun dev ->
                          let arm = dev.Fleet.Device.arm.Fleet.Spec.arm_name in
                          match Hashtbl.find by_key (Fleet.Device.key spec dev) with
                          | Ok s ->
                            Fleet.Sketch.fold_device state ~id:dev.Fleet.Device.id
                              ~arm ~replay:(Fleet.Device.replay_args spec dev)
                              s.Results.outcome
                          | Error _ ->
                            Fleet.Sketch.fold_failure state ~id:dev.Fleet.Device.id
                              ~arm)
                        devs;
                      Printf.fprintf journal
                        "{\"schema_version\":%d,\"spec_digest\":%S,\"done\":%d,\"state\":%s}\n%!"
                        Fleet.Runner.journal_schema_version digest hi
                        (Fleet.Sketch.render state)))
            in
            fold := !fold +. dt;
            loop hi
          end
        in
        loop 0)
  in
  close_out journal;
  rm_rf dir;
  let report =
    Printf.sprintf "{\"schema_version\":%d,\"spec_digest\":%S,\"spec\":%s,\"state\":%s}\n"
      Fleet.Runner.journal_schema_version digest (Fleet.Spec.render spec)
      (Fleet.Sketch.render state)
  in
  let p = job_pass ~wall !results in
  {
    p with
    items = spec.Fleet.Spec.devices;
    failed = state.Fleet.Sketch.failed_total;
    fold = !fold;
    ops = [ fleet_op ~variant spec report ];
  }

let fleet ~seed =
  let variant = variant_of seed in
  let spec = fleet_spec ~seed:variant in
  Metrics.set_enabled true;
  {
    setup =
      (fun () ->
        let spec = fleet_spec ~seed:variant in
        for id = 0 to spec.Fleet.Spec.devices - 1 do
          ignore (Fleet.Device.job spec (Fleet.Device.instantiate spec ~id))
        done;
        ignore (make_trace spec.Fleet.Spec.trace));
    warm = (fun () -> ignore (Exp.trace_of spec.Fleet.Spec.trace));
    pass = fleet_untraced ~variant spec;
    traced = fleet_traced ~variant spec;
    finish = ignore;
  }

(* --- long-run --- *)

let lr_jobs trace =
  let harvested = Exp.power trace in
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun setting ->
          List.map
            (fun power ->
              {
                key = Exp.run_key ~scale:lr_scale setting ~power bench;
                exp = "long-run";
                setting;
                power_id = Exp.power_key power;
                bench;
                scale = lr_scale;
                power = (fun () -> power);
              })
            [ harvested; Driver.Unlimited ])
        lr_settings)
    lr_benches

(* Harvested outcomes depend on the trace seed, unlimited ones do not. *)
let lr_op_id ~variant j =
  if j.power_id = "unlimited" then j.key
  else Printf.sprintf "seed%d|%s" variant j.key

let lr_compute j =
  match Exp.compute ~scale:j.scale j.setting ~power:(j.power ()) j.bench with
  | s -> Ok s
  | exception e -> Error (Printexc.to_string e)

let long_run ~seed =
  let variant = variant_of seed in
  let trace = Trace.make ~seed:variant Trace.Rf_home in
  let jobs = lr_jobs trace in
  {
    setup = (fun () -> ignore (lr_jobs (make_trace ~seed:variant Trace.Rf_home)));
    warm = ignore;
    pass =
      (fun _ ->
        let results, wall =
          timed (fun () -> Executor.map ~workers (fun j -> (j, lr_compute j)) jobs)
        in
        job_pass ~id:(lr_op_id ~variant) ~wall results);
    traced =
      (fun _ ->
        let results, wall =
          timed (fun () -> Executor.map ~workers (fun j -> (j, traced_job j)) jobs)
        in
        job_pass ~id:(lr_op_id ~variant) ~wall results);
    finish = ignore;
  }

let workload_of name ~seed =
  match name with
  | "design-sweep" -> design_sweep ~seed
  | "design-sweep-workers" -> design_sweep_workers ~seed
  | "fleet" -> fleet ~seed
  | "long-run" -> long_run ~seed
  | _ -> raise (Arg.Bad ("unknown workload " ^ name))

(* ---------------------------------------------------------------- *)
(* Runs *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name value unit_ = { name; value; unit_; note }

(* Repeat passes until [budget] seconds of wall time have gone (at least
   one pass), calling [before] ahead of each. *)
let passes ?(before = ignore) ~budget f =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= budget then List.rev acc
    else begin
      before ();
      let h0 = host () in
      let p = f () in
      let h1 = host () in
      Printf.eprintf "pass %d: %d items in %.3f s%s (user %.2f s, sys %.2f s, %d major GCs)\n%!"
        (List.length acc + 1) p.items p.wall
        (if p.warm_items > 0 then
           Printf.sprintf ", then %d from the cache in %.3f s" p.warm_items
             p.warm_wall
         else "")
        (h1.user -. h0.user) (h1.sys -. h0.sys) (h1.major - h0.major);
      go (p :: acc)
    end
  in
  go []

(* Seconds per set-up of each timed block, newest first. *)
let setup_times = ref []

let setup_sample (w : workload) blocks =
  for _ = 1 to blocks do
    let (), dt = timed (fun () -> for _ = 1 to setup_block do w.setup () done) in
    setup_times := (dt /. float_of_int setup_block) :: !setup_times
  done

let untraced_run name (w : workload) ~seconds ~dir =
  setup_sample w setup_blocks;
  w.warm ();
  let ps =
    passes ~budget:seconds
      ~before:(fun () -> setup_sample w setup_blocks_per_pass)
      (fun () -> w.pass dir)
  in
  let setup_s = median !setup_times in
  (* Supervised workers are alive until [finish]; their peaks count. *)
  let workers_rss = List.map peak_rss_mb (children ()) in
  let rss = peak_rss_mb "self" +. sum_by Fun.id workers_rss in
  w.finish ();
  let items = isum_by (fun p -> p.items) ps in
  let wall = sum_by (fun p -> p.wall) ps in
  let warm_items = isum_by (fun p -> p.warm_items) ps in
  let warm_wall = sum_by (fun p -> p.warm_wall) ps in
  let instr = isum_by (fun p -> p.instr) ps in
  (* Every pass runs the same jobs, so the first one gives the counts. *)
  let first = List.hd ps in
  let cold_s = median (List.map (fun p -> p.wall) ps) in
  let warm_s = median (List.map (fun p -> p.warm_wall) ps) in
  let jobs_per_s = float_of_int first.items /. cold_s in
  let attempted = isum_by (fun p -> p.items + p.warm_items) ps in
  let failed = isum_by (fun p -> p.failed) ps in
  let unit_name = if name = "fleet" then "devices" else "jobs" in
  let metrics =
    [
      m "jobs_per_s" jobs_per_s "1/s"
        ~note:
          (Printf.sprintf "median pass of %d; %d %s%s in %.3f s"
             (List.length ps) items unit_name
             (if warm_items > 0 then " (cold)" else "")
             wall);
      m "sim_mips"
        (float_of_int first.instr /. (cold_s +. warm_s) /. 1e6)
        "Minstr/s"
        ~note:
          (Printf.sprintf "median pass; %d instructions simulated in %.3f s" instr
             (wall +. warm_wall));
      m "setup_s" setup_s "s"
        ~note:
          (Printf.sprintf "median of %d blocks of %d set-ups"
             (List.length !setup_times) setup_block);
      m "peak_rss_mb" rss "MiB"
        ~note:
          (match workers_rss with
          | [] -> "VmHWM of the benchmark process"
          | ws ->
            Printf.sprintf "VmHWM of the benchmark process + its %d workers (%s MiB)"
              (List.length ws)
              (String.concat ", " (List.map (Printf.sprintf "%.1f") ws)));
    ]
    @ (if name = "fleet" then
       [ m "devices_per_s" jobs_per_s "1/s" ~note:"= jobs_per_s" ]
     else [])
    @ (if warm_items > 0 then
         [
           m "cached_jobs_per_s"
             (float_of_int first.warm_items /. warm_s)
             "1/s"
             ~note:
               (Printf.sprintf "median pass; %d jobs (warm) in %.3f s"
                  warm_items warm_wall);
         ]
       else [])
    @ [
        m "fail_ratio"
          (float_of_int failed /. float_of_int (max 1 attempted))
          "ratio"
          ~note:(Printf.sprintf "%d of %d failed" failed attempted);
      ]
  in
  (metrics, ps)

let traced_run name (w : workload) ~seconds ~dir =
  setup_sample w setup_blocks;
  w.warm ();
  let trace_make = median !trace_make_times in
  (* Untraced half: the walls the spans are compared with. *)
  let h0 = host () in
  let plain = passes ~budget:(seconds /. 2.0) (fun () -> w.pass dir) in
  w.finish ();
  let h1 = host () in
  let n = List.length plain in
  let nf = float_of_int n in
  spans := [];
  let traced =
    List.init n (fun _ ->
        Hashtbl.reset compiled_seen;
        w.traced dir)
  in
  let self = self_times () in
  let per_call name =
    let tot, k = self name in
    if k = 0 then 0.0 else tot /. float_of_int k *. 1e3
  in
  let job_total = fst (self "job") in
  let child_total name = fst (self name) in
  let layers =
    [ "workloads.build"; "compiler.compile"; "energy.power";
      "machine.instantiate"; "sim.simulate"; "exp.summarize"; "exp.wire";
      "exp.rcache_store"; "exp.rcache_find" ]
  in
  let job_span_total =
    job_total +. List.fold_left (fun acc l -> acc +. child_total l) 0.0 layers
  in
  let share name =
    Printf.sprintf "%.1f%% of job time"
      (100.0 *. child_total name /. max 1e-12 job_span_total)
  in
  let instr = isum_by (fun p -> p.instr) traced in
  let plain_wall = sum_by (fun p -> p.wall) plain /. nf in
  let traced_wall = sum_by (fun p -> p.wall) traced /. nf in
  let fold = sum_by (fun p -> p.fold) traced /. nf in
  let spans_per_pass = job_span_total /. nf /. float_of_int workers in
  let runner_self = plain_wall -. spans_per_pass in
  let layer name label =
    m label (per_call name) "ms" ~note:(share name)
  in
  let metrics =
    [
      layer "workloads.build" "workloads.build_ms";
      layer "compiler.compile" "compiler.compile_ms";
      m "compiler.reuse_ratio"
        (float_of_int !compiles_reused /. float_of_int (max 1 !compiles))
        "ratio"
        ~note:(Printf.sprintf "%d of %d compiles repeat a key of their pass"
                 !compiles_reused !compiles);
      layer "energy.power" "energy.power_ms";
      m "energy.trace_make_ms" (trace_make *. 1e3) "ms"
        ~note:"Power_trace.make, median over set-ups";
      layer "machine.instantiate" "machine.instantiate_ms";
      layer "sim.simulate" "sim.simulate_ms";
      m "sim.ns_per_instr"
        (child_total "sim.simulate" *. 1e9 /. float_of_int (max 1 instr))
        "ns";
      m "sim.instructions" (float_of_int instr /. nf) "count" ~note:"per pass";
      layer "exp.summarize" "exp.summarize_ms";
      m "exp.job_self_ms" (per_call "job") "ms"
        ~note:(Printf.sprintf "job span not covered by a layer span; %s"
                 (share "job"));
      m "exp.dispatch_s" (runner_self -. fold) "s"
        ~note:
          (Printf.sprintf "per pass: untraced wall %.3f s - job spans / %d%s"
             plain_wall workers (if fold > 0.0 then " - fold" else ""));
      m "host.user_s" ((h1.user -. h0.user) /. nf) "s" ~note:"per untraced pass";
      m "host.sys_s" ((h1.sys -. h0.sys) /. nf) "s" ~note:"per untraced pass";
      m "gc.major_collections"
        (float_of_int (h1.major - h0.major) /. nf) "count" ~note:"per untraced pass";
      m "gc.minor_mwords" ((h1.minor_w -. h0.minor_w) /. nf /. 1e6) "Mwords"
        ~note:"per untraced pass";
      m "gc.major_mwords" ((h1.major_w -. h0.major_w) /. nf /. 1e6) "Mwords"
        ~note:"per untraced pass";
      m "trace.overhead_s" (traced_wall -. plain_wall) "s"
        ~note:
          (Printf.sprintf "per pass: traced %.3f s - untraced %.3f s" traced_wall
             plain_wall);
      layer "exp.rcache_store" "exp.rcache_store_ms";
      layer "exp.rcache_find" "exp.rcache_find_ms";
      layer "exp.wire" "exp.wire_ms";
      m "fleet.fold_ms" (fold *. 1e3) "ms" ~note:"per pass";
      m "fleet.runner_self_s" (if name = "fleet" then runner_self else 0.0) "s"
        ~note:"per pass: Runner.run wall - device spans / workers";
      m "host.children_cpu_s" ((h1.children -. h0.children) /. nf) "s"
        ~note:"per untraced pass (worker processes)";
    ]
  in
  (metrics, plain @ traced)

(* ---------------------------------------------------------------- *)
(* Output *)

let json_of_metric x =
  Json.Obj
    [
      ("name", Json.Str x.name);
      ("value", Json.Num x.value);
      ("unit", Json.Str x.unit_);
      ("note", Json.Str x.note);
    ]

let json_of_op o =
  Json.List [ Json.Str o.op_id; Json.Str o.digest; Json.Num (float_of_int o.count) ]

let print_result ~metrics ~ops =
  print_endline
    (Json.render
       (Json.Obj
          [
            ("metrics", Json.List (List.map json_of_metric metrics));
            ("ops", Json.List (List.map json_of_op ops));
          ]))

let run ~workload ~seed ~seconds ~trace ~dir ~spans_out =
  let origin = now () in
  let w = workload_of workload ~seed in
  let metrics, ps =
    if trace then traced_run workload w ~seconds ~dir
    else untraced_run workload w ~seconds ~dir
  in
  if trace then Option.iter (fun path -> write_spans path ~origin) spans_out;
  print_result ~metrics ~ops:(List.concat_map (fun p -> p.ops) ps)

(* Digests of every input a seed can select. *)
let record ~workload ~dir =
  let ops =
    match workload with
    | "design-sweep" ->
      let results, _ = execute_pass (ds_all_jobs ()) in
      (job_pass ~wall:0.0 results).ops
    | "fleet" ->
      Metrics.set_enabled true;
      List.concat_map
        (fun v -> (fleet_untraced ~variant:v (fleet_spec ~seed:v) dir).ops)
        (List.init variants Fun.id)
    | "long-run" ->
      List.concat_map
        (fun v ->
          let jobs = lr_jobs (Trace.make ~seed:v Trace.Rf_home) in
          let jobs =
            if v = 0 then jobs
            else List.filter (fun j -> j.power_id <> "unlimited") jobs
          in
          List.map
            (fun j ->
              { op_id = lr_op_id ~variant:v j; digest = digest_of j (lr_compute j);
                count = 1 })
            jobs)
        (List.init variants Fun.id)
    | _ -> raise (Arg.Bad ("no recorded digests for workload " ^ workload))
  in
  print_result ~metrics:[] ~ops

let () =
  (* Supervised runs re-exec this binary as their workers. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = Worker.argv_flag then
    exit (Worker.main ());
  let mode = ref "" in
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and dir = ref "" and spans_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced run");
      ("--dir", Arg.Set_string dir, "DIR scratch directory (removed by the caller)");
      ("--spans", Arg.Set_string spans_out, "FILE where the traced run writes its spans");
    ]
  in
  let usage = "perfbench (run|record) --workload NAME --dir DIR [options]" in
  Arg.parse spec (fun a -> mode := a) usage;
  if !workload = "" || !dir = "" then begin
    prerr_endline usage;
    exit 2
  end;
  (try Unix.mkdir !dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  match !mode with
  | "run" ->
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~dir:!dir
      ~spans_out:(if !spans_out = "" then None else Some !spans_out)
  | "record" -> record ~workload:!workload ~dir:!dir
  | _ ->
    prerr_endline usage;
    exit 2
