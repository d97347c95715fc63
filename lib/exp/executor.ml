module H = Sweep_sim.Harness
module Driver = Sweep_sim.Driver
module Sink = Sweep_obs.Sink
module Ev = Sweep_obs.Event
module Metrics = Sweep_obs.Metrics
module Hb = Sweep_obs.Heartbeat
module Flight = Sweep_obs.Flight
module Om = Sweep_obs.Openmetrics
module Clock = Sweep_util.Clock

(* Worker count is process-global configuration (the -j flag), read at
   execute time.  1 means fully sequential: no domain is spawned, which
   keeps e.g. `dune runtest` and byte-for-byte reference runs on the
   plain code path. *)
let default_workers = ref (Domain.recommended_domain_count ())
let set_workers n = default_workers := max 1 n
let workers () = !default_workers

(* Telemetry and reporting are per-run configuration, threaded through
   [execute] instead of mutated globals. *)
type config = {
  progress : bool;
  heartbeat_every : int;
  status : Status.t option;
  flight : Flight.t option;
  export : Om.exporter option;
  attrib_dir : string option;
  rcache : Rcache.t option;
  distribute : Supervisor.policy option;
}

let config ?(progress = false) ?(heartbeat_every = 0) ?status ?flight ?export
    ?attrib_dir ?rcache ?distribute () =
  {
    progress;
    heartbeat_every;
    status;
    flight;
    export;
    attrib_dir;
    rcache;
    distribute;
  }

(* Wall-clock origin for Job_start/Job_done timestamps: simulation events
   carry simulated ns, executor events carry host ns since process
   start — the Chrome sink keeps them on separate process tracks. *)
let epoch_s = Clock.now_s ()
let wall_ns () = (Clock.now_s () -. epoch_s) *. 1.0e9

let m_jobs_run = Metrics.counter "exp.jobs_run"
let m_jobs_cached = Metrics.counter "exp.jobs_cached"

let m_job_elapsed =
  Metrics.histogram "exp.job_elapsed_s"
    ~buckets:[| 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |]

let m_jobs_failed = Metrics.counter "exp.jobs_failed"

(* Per-[execute] run state: configuration plus the progress counter the
   old global pair used to hold. *)
type run_state = {
  cfg : config;
  budget : Jobs.t -> float option;
  plock : Mutex.t;
  mutable finished : int;
  total : int;
}

let note_progress st key elapsed_s =
  Mutex.lock st.plock;
  st.finished <- st.finished + 1;
  if st.cfg.progress then
    Printf.eprintf "[%d/%d] %s (%.2fs)\n%!" st.finished st.total key elapsed_s;
  Mutex.unlock st.plock

(* One fresh heartbeat per job (never shared across domains), observed
   by the live-status aggregator and the metrics exporter. *)
let heartbeat_for st ~key =
  if st.cfg.heartbeat_every <= 0 then None
  else
    let observer =
      match (st.cfg.status, st.cfg.export) with
      | None, None -> None
      | status, export ->
        Some
          (fun hb ->
            Option.iter (fun s -> Status.beat s ~key hb) status;
            Option.iter Om.tick export)
    in
    Some (Hb.create ?observer ~every:st.cfg.heartbeat_every ())

let run_job st j =
  let key = Jobs.key j in
  if Results.mem key then begin
    if Metrics.enabled () then Metrics.inc m_jobs_cached
  end
  else begin
    if Sink.on () then Sink.emit ~ns:(wall_ns ()) (Ev.Job_start { key });
    let power = Jobs.to_power j.Jobs.power in
    let sim_budget_ns = st.budget j in
    let heartbeat = heartbeat_for st ~key in
    Option.iter (fun s -> Status.job_started s ~key) st.cfg.status;
    let t0 = Clock.now_s () in
    match
      Exp_common.compute ~scale:j.Jobs.scale ?sim_budget_ns ?heartbeat
        ?attrib_dir:st.cfg.attrib_dir j.Jobs.setting ~power j.Jobs.bench
    with
    (* A failing job (Stagnation, a workload bug, …) becomes a
       structured Failed result: the pool keeps draining, renderers see
       a missing key, and the CLI reports the failure at the end. *)
    | exception exn ->
      let elapsed_s = Clock.now_s () -. t0 in
      let backtrace = Printexc.get_backtrace () in
      let error = Printexc.to_string exn in
      Results.record_failure ~key ~error ~backtrace;
      if Sink.on () then
        Sink.emit ~ns:(wall_ns ()) (Ev.Job_failed { key; error });
      (* Flight recorder: the ring has been collecting alongside the
         sink (including the Job_failed line just emitted); freeze it
         into a post-mortem artifact for this key. *)
      (match st.cfg.flight with
      | Some fl ->
        let path = Flight.dump fl ~key ~error ~backtrace in
        if st.cfg.progress then Printf.eprintf "postmortem: %s\n%!" path
      | None -> ());
      if Metrics.enabled () then Metrics.inc m_jobs_failed;
      Option.iter
        (fun s -> Status.job_finished s ~key ~ok:false ~elapsed_s ~sim_ns:0.0)
        st.cfg.status;
      Option.iter Om.tick st.cfg.export;
      note_progress st (key ^ " FAILED: " ^ error) elapsed_s
    | summary ->
      let elapsed_s = Clock.now_s () -. t0 in
      if Sink.on () then
        Sink.emit ~ns:(wall_ns ()) (Ev.Job_done { key; elapsed_s });
      if Metrics.enabled () then begin
        Metrics.inc m_jobs_run;
        Metrics.observe m_job_elapsed elapsed_s
      end;
      Option.iter
        (fun s ->
          Status.job_finished s ~key ~ok:true ~elapsed_s
            ~sim_ns:(Driver.total_ns summary.Exp_common.outcome))
        st.cfg.status;
      Option.iter Om.tick st.cfg.export;
      note_progress st key elapsed_s;
      let stored = Results.add ~key summary in
      if stored == summary then begin
        Results.emit ~exp:j.Jobs.exp ~key
          ~design:(H.design_name j.Jobs.setting.Exp_common.design)
          ~label:j.Jobs.setting.Exp_common.label
          ~power:(Jobs.power_id j.Jobs.power)
          ~bench:j.Jobs.bench ~scale:j.Jobs.scale ~elapsed_s summary;
        match st.cfg.rcache with
        | Some rc ->
          Rcache.store rc ~key
            ~digest:(Rcache.config_digest j.Jobs.setting)
            ~elapsed_s summary
        | None -> ()
      end
  end

(* Shared worker pool: indices 0..n-1 pulled from an atomic cursor by
   [w] domains (the calling domain is one of them).  If any worker
   raises, the remaining indices still finish in the other workers and
   the first exception is re-raised after the join. *)
let pool_iter ~w n f =
  if n <= 0 then ()
  else if w <= 1 || n = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          f i;
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (min w n - 1) (fun _ -> Domain.spawn worker) in
    let parent_error = try worker (); None with e -> Some e in
    let worker_error =
      List.fold_left
        (fun acc d ->
          match (try Domain.join d; None with e -> Some e) with
          | Some _ as e when acc = None -> e
          | _ -> acc)
        None spawned
    in
    match (parent_error, worker_error) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()
  end

let map ?workers:w f xs =
  let w = match w with Some w -> max 1 w | None -> !default_workers in
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let out = Array.make n None in
  pool_iter ~w n (fun i -> out.(i) <- Some (f arr.(i)));
  Array.to_list out
  |> List.map (function Some r -> r | None -> assert false)

(* Resolve jobs against the persistent result cache before scheduling:
   a hit lands in the results store (and the JSONL sink, with the
   cached job's original elapsed time) exactly as if it had just run,
   so the pending filter below drops it and renderers cannot tell the
   difference.  Corrupt entries were already warned + unlinked by
   {!Rcache.find} and simply stay pending. *)
let resolve_cached rc jobs =
  let hits = ref 0 in
  List.iter
    (fun j ->
      let key = Jobs.key j in
      if not (Results.mem key) then
        let digest = Rcache.config_digest j.Jobs.setting in
        match Rcache.find rc ~key ~digest with
        | None -> ()
        | Some (summary, elapsed_s) ->
          incr hits;
          if Sink.on () then
            Sink.emit ~ns:(wall_ns ()) (Ev.Cache_hit { key });
          let stored = Results.add ~key summary in
          if stored == summary then
            Results.emit ~exp:j.Jobs.exp ~key
              ~design:(H.design_name j.Jobs.setting.Exp_common.design)
              ~label:j.Jobs.setting.Exp_common.label
              ~power:(Jobs.power_id j.Jobs.power)
              ~bench:j.Jobs.bench ~scale:j.Jobs.scale ~elapsed_s summary)
    jobs;
  if !hits > 0 then Supervisor.note_cache_hits !hits

let execute ?workers:w ?config:cfg ?budget jobs =
  let w = match w with Some w -> max 1 w | None -> !default_workers in
  let cfg = match cfg with Some c -> c | None -> config () in
  let budget = match budget with Some f -> f | None -> fun _ -> None in
  let jobs = Jobs.dedup jobs in
  Option.iter (fun rc -> resolve_cached rc jobs) cfg.rcache;
  let pending = List.filter (fun j -> not (Results.mem (Jobs.key j))) jobs in
  let st =
    { cfg; budget; plock = Mutex.create (); finished = 0;
      total = List.length pending }
  in
  Option.iter (fun s -> Status.add_total s st.total) cfg.status;
  (match pending with
  | [] -> ()
  | pending ->
    let body () =
      match cfg.distribute with
      | Some policy ->
        (* Multi-process mode: ship the batch to the supervised worker
           fleet; every stateful concern (store, emission, cache,
           status) stays in this process. *)
        Supervisor.run ~policy ~progress:cfg.progress
          ~heartbeat_every:cfg.heartbeat_every ?status:cfg.status
          ?flight:cfg.flight ?export:cfg.export ?attrib_dir:cfg.attrib_dir
          ?rcache:cfg.rcache ~budget pending
      | None ->
        (* Materialise every shared base trace in the parent domain so
           workers share read-only instances instead of racing to build
           them (per-device jittered copies stay worker-local). *)
        if w > 1 && List.length pending > 1 then
          List.iter (fun j -> Jobs.prewarm j.Jobs.power) pending;
        let arr = Array.of_list pending in
        pool_iter ~w (Array.length arr) (fun i -> run_job st arr.(i))
    in
    (* Arm the flight recorder's ring alongside whatever sink the run
       installed (tee set up before workers spawn, torn down after the
       join). *)
    match cfg.flight with
    | Some fl -> Sink.with_tee (Flight.sink fl) body
    | None -> body ());
  Option.iter Status.write cfg.status;
  Option.iter Om.tick cfg.export
