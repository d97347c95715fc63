(* Supervised multi-process execution: the parent half.

   [run] shards a pending job list across N worker processes (the
   binary re-exec'd with {!Worker.argv_flag}), routing each job to a
   slot by a stable hash of its canonical key, and then supervises:

   - liveness: workers stream {!Wire.Beat} frames (the PR 7 heartbeat
     observer, forwarded over the pipe); a busy worker whose last
     activity is older than [worker_timeout_s] is SIGKILLed, and every
     exit — crash, kill, OOM — is reaped with [waitpid].
   - retry: a job in flight on a dead worker is requeued at the front
     of its slot (attempt + 1) until [retries] extra attempts are
     spent, after which it is quarantined as a structured
     {!Results.failure} — a poison job never sinks the run.
   - respawn: dead slots with work left respawn under seeded
     exponential backoff + jitter ({!backoff_delay_s} is a pure
     function of (seed, slot, attempt), so schedules are reproducible
     across runs and worker counts).  A pool-lifetime [respawn_budget]
     bounds the churn; when it runs out the slot retires, its queue
     reroutes to surviving slots, and the run finishes degraded
     (distinct exit code, {!stats}.degraded).

   The parent owns every stateful concern — results store, JSONL
   emission, result cache, status file, metrics, trace events — so
   supervised and in-process execution produce byte-identical outputs:
   workers only compute.  The pool persists across [run] calls (one
   sweeptune search = many execute batches) and is torn down by
   {!shutdown} or by process exit (workers see EOF on stdin and leave).

   Jobs that fail *deterministically* (the worker reports
   {!Wire.Failed}) are not retried: they would fail identically, and
   the in-process path does not retry them either — the retry loop
   exists for infrastructure deaths, not simulation errors. *)

module Sink = Sweep_obs.Sink
module Ev = Sweep_obs.Event
module Metrics = Sweep_obs.Metrics
module Hb = Sweep_obs.Heartbeat
module Flight = Sweep_obs.Flight
module Om = Sweep_obs.Openmetrics
module Rng = Sweep_util.Rng
module Clock = Sweep_util.Clock

type policy = {
  workers : int;
  retries : int;
  worker_timeout_s : float;
  respawn_budget : int;
  backoff_base_s : float;
  backoff_max_s : float;
  seed : int;
  chaos_kill_after : int option;
}

let policy ?(retries = 2) ?(worker_timeout_s = 60.0) ?(respawn_budget = 8)
    ?(backoff_base_s = 0.05) ?(backoff_max_s = 2.0) ?(seed = 42)
    ?chaos_kill_after ~workers () =
  {
    workers = max 1 workers;
    retries = max 0 retries;
    worker_timeout_s;
    respawn_budget = max 0 respawn_budget;
    backoff_base_s = Float.max 0.0 backoff_base_s;
    backoff_max_s = Float.max 0.0 backoff_max_s;
    seed;
    chaos_kill_after;
  }

(* Deterministic backoff: delay before respawn [nth] of [slot] (0-based).
   Exponential in [nth], capped, with up to +50% jitter drawn from an
   RNG keyed by (seed, slot, nth) alone — independent of scheduling
   order, worker count and wall clock, hence testable as a pure
   schedule. *)
let backoff_delay_s p ~slot ~nth =
  let base = Float.min p.backoff_max_s (p.backoff_base_s *. (2.0 ** float_of_int nth)) in
  let r = Rng.create ((p.seed * 1_000_003) + (slot * 8191) + nth) in
  base *. (1.0 +. (0.5 *. Rng.float r 1.0))

type stats = {
  mutable spawns : int;
  mutable deaths : int;
  mutable job_retries : int;
  mutable quarantined : int;
  mutable cache_hits : int;  (* accounted by Executor at batch start *)
  mutable degraded : bool;
}

let the_stats =
  {
    spawns = 0;
    deaths = 0;
    job_retries = 0;
    quarantined = 0;
    cache_hits = 0;
    degraded = false;
  }

let stats () =
  {
    spawns = the_stats.spawns;
    deaths = the_stats.deaths;
    job_retries = the_stats.job_retries;
    quarantined = the_stats.quarantined;
    cache_hits = the_stats.cache_hits;
    degraded = the_stats.degraded;
  }

let reset_stats () =
  the_stats.spawns <- 0;
  the_stats.deaths <- 0;
  the_stats.job_retries <- 0;
  the_stats.quarantined <- 0;
  the_stats.cache_hits <- 0;
  the_stats.degraded <- false

let note_cache_hits n = the_stats.cache_hits <- the_stats.cache_hits + n

let m_spawns = Metrics.counter "exp.worker_spawns"
let m_deaths = Metrics.counter "exp.worker_deaths"
let m_retries = Metrics.counter "exp.job_retries"
let m_quarantined = Metrics.counter "exp.jobs_quarantined"
let m_jobs_run = Metrics.counter "exp.jobs_run"
let m_jobs_failed = Metrics.counter "exp.jobs_failed"

let m_job_elapsed =
  Metrics.histogram "exp.job_elapsed_s"
    ~buckets:[| 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |]

(* Stable routing hash (FNV-1a, masked to 30 bits): must not depend on
   process randomisation or OCaml version details, so results route
   identically in every run. *)
let route_hash key =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff)
    key;
  !h

type slot = {
  id : int;
  mutable pid : int;
  mutable to_w : out_channel option;  (* worker stdin *)
  mutable from_w : Unix.file_descr option;  (* worker stdout *)
  rbuf : Buffer.t;
  mutable queue : (Jobs.t * int) list;  (* (job, attempt), front first *)
  mutable inflight : (Jobs.t * int) option;
  mutable last_activity : float;
  mutable respawns : int;  (* respawns completed for this slot *)
  mutable respawn_at : float;  (* backoff deadline when dead *)
  mutable kill_reason : string option;  (* set before a deliberate kill *)
  mutable retired : bool;  (* respawn budget exhausted: permanently dead *)
}

type pool = {
  policy : policy;
  slots : slot array;
  mutable respawns_used : int;
  chaos_rng : Rng.t;
  mutable chaos_done : int;  (* Done frames seen (chaos trigger) *)
  mutable chaos_fired : bool;
}

let current : pool option ref = ref None

let alive s = s.pid > 0

let close_slot_io s =
  (match s.to_w with
  | Some oc -> (try close_out_noerr oc with _ -> ())
  | None -> ());
  s.to_w <- None;
  (match s.from_w with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  s.from_w <- None;
  Buffer.clear s.rbuf

(* Liveness, back-off and trace timestamps all run on the monotonic
   clock: a wall-clock step would otherwise disable the worker timeout
   (backwards) or SIGKILL healthy workers (forwards). *)
let epoch_s = Clock.now_s ()
let wall_ns () = (Clock.now_s () -. epoch_s) *. 1.0e9

let send_frame s frame =
  match s.to_w with
  | None -> false
  | Some oc -> (
    try
      output_string oc (Wire.line_of_to_worker frame);
      output_char oc '\n';
      flush oc;
      true
    with Sys_error _ -> false)

let spawn ~heartbeat_every ~attrib_dir s =
  let r_in, w_in = Unix.pipe () in
  let r_out, w_out = Unix.pipe () in
  Unix.set_close_on_exec w_in;
  Unix.set_close_on_exec r_out;
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; Worker.argv_flag |] r_in w_out Unix.stderr
  in
  Unix.close r_in;
  Unix.close w_out;
  s.pid <- pid;
  s.to_w <- Some (Unix.out_channel_of_descr w_in);
  s.from_w <- Some r_out;
  Buffer.clear s.rbuf;
  s.last_activity <- Clock.now_s ();
  s.kill_reason <- None;
  the_stats.spawns <- the_stats.spawns + 1;
  if Metrics.enabled () then Metrics.inc m_spawns;
  if Sink.on () then
    Sink.emit ~ns:(wall_ns ()) (Ev.Worker_spawn { worker = s.id; pid });
  ignore (send_frame s (Wire.Init { heartbeat_every; attrib_dir }))

(* Reroute a retired slot's queue over the slots still in play,
   deterministically by key hash over the sorted survivor ids. *)
let reroute pool s =
  let survivors =
    Array.to_list pool.slots
    |> List.filter (fun x -> (not x.retired) && x.id <> s.id)
  in
  match survivors with
  | [] -> () (* nothing to reroute to; the drain loop quarantines *)
  | survivors ->
    let arr = Array.of_list survivors in
    List.iter
      (fun (job, attempt) ->
        let target =
          arr.(route_hash (Jobs.key job) mod Array.length arr)
        in
        target.queue <- target.queue @ [ (job, attempt) ])
      s.queue;
    s.queue <- []

(* {2 The run loop} *)

type run_ctx = {
  pool : pool;
  progress : bool;
  status : Status.t option;
  flight : Flight.t option;
  export : Om.exporter option;
  rcache : Rcache.t option;
  budget : Jobs.t -> float option;
  mutable remaining : int;
  total : int;
  mutable finished : int;
}

let note_progress ctx key elapsed_s =
  ctx.finished <- ctx.finished + 1;
  if ctx.progress then
    Printf.eprintf "[%d/%d] %s (%.2fs)\n%!" ctx.finished ctx.total key
      elapsed_s

let job_failed ctx ~key ~error ~backtrace =
  Results.record_failure ~key ~error ~backtrace;
  if Sink.on () then Sink.emit ~ns:(wall_ns ()) (Ev.Job_failed { key; error });
  (match ctx.flight with
  | Some fl ->
    let path = Flight.dump fl ~key ~error ~backtrace in
    if ctx.progress then Printf.eprintf "postmortem: %s\n%!" path
  | None -> ());
  if Metrics.enabled () then Metrics.inc m_jobs_failed;
  Option.iter
    (fun st -> Status.job_finished st ~key ~ok:false ~elapsed_s:0.0 ~sim_ns:0.0)
    ctx.status;
  Option.iter Om.tick ctx.export;
  ctx.remaining <- ctx.remaining - 1;
  note_progress ctx (key ^ " FAILED: " ^ error) 0.0

let quarantine ctx ~key ~error =
  the_stats.quarantined <- the_stats.quarantined + 1;
  if Metrics.enabled () then Metrics.inc m_quarantined;
  job_failed ctx ~key ~error ~backtrace:""

let job_done ctx (job : Jobs.t) ~elapsed_s summary =
  let key = Jobs.key job in
  if Sink.on () then
    Sink.emit ~ns:(wall_ns ()) (Ev.Job_done { key; elapsed_s });
  if Metrics.enabled () then begin
    Metrics.inc m_jobs_run;
    Metrics.observe m_job_elapsed elapsed_s
  end;
  Option.iter
    (fun st ->
      Status.job_finished st ~key ~ok:true ~elapsed_s
        ~sim_ns:(Sweep_sim.Driver.total_ns summary.Results.outcome))
    ctx.status;
  Option.iter Om.tick ctx.export;
  note_progress ctx key elapsed_s;
  let stored = Results.add ~key summary in
  if stored == summary then begin
    Results.emit ~exp:job.Jobs.exp ~key
      ~design:
        (Sweep_sim.Harness.design_name job.Jobs.setting.Exp_common.design)
      ~label:job.Jobs.setting.Exp_common.label
      ~power:(Jobs.power_id job.Jobs.power)
      ~bench:job.Jobs.bench ~scale:job.Jobs.scale ~elapsed_s summary;
    match ctx.rcache with
    | Some rc ->
      Rcache.store rc ~key
        ~digest:(Rcache.config_digest job.Jobs.setting)
        ~elapsed_s summary
    | None -> ()
  end;
  ctx.remaining <- ctx.remaining - 1

let dispatch ctx s =
  match s.queue with
  | (job, attempt) :: rest when alive s && s.inflight = None ->
    s.queue <- rest;
    let key = Jobs.key job in
    if Sink.on () then Sink.emit ~ns:(wall_ns ()) (Ev.Job_start { key });
    Option.iter (fun st -> Status.job_started st ~key) ctx.status;
    s.inflight <- Some (job, attempt);
    s.last_activity <- Clock.now_s ();
    if
      not
        (send_frame s
           (Wire.Job { key; spec = job; sim_budget_ns = ctx.budget job }))
    then begin
      (* The pipe is already broken: undo and let the reaper retry. *)
      s.inflight <- None;
      s.queue <- (job, attempt) :: s.queue;
      Option.iter (fun st -> Status.job_retried st ~key) ctx.status
    end
  | _ -> ()

let handle_frame ctx s = function
  | Wire.Beat { key; instructions; sim_ns; reboots; nvm_writes; beats } ->
    s.last_activity <- Clock.now_s ();
    Option.iter
      (fun st ->
        Status.beat_counts st ~key ~instructions ~sim_ns ~reboots ~nvm_writes
          ~beats)
      ctx.status;
    Option.iter Om.tick ctx.export
  | Wire.Done { key; elapsed_s; summary } -> (
    s.last_activity <- Clock.now_s ();
    match s.inflight with
    | Some (job, _) when Jobs.key job = key ->
      s.inflight <- None;
      job_done ctx job ~elapsed_s summary;
      ctx.pool.chaos_done <- ctx.pool.chaos_done + 1
    | _ -> () (* stale frame from a superseded dispatch: drop *))
  | Wire.Failed { key; error; backtrace } -> (
    s.last_activity <- Clock.now_s ();
    match s.inflight with
    | Some (job, _) when Jobs.key job = key ->
      s.inflight <- None;
      job_failed ctx ~key ~error ~backtrace
    | _ -> ())

let drain_slot_buffer ctx s =
  (* Split complete lines off the slot's read buffer. *)
  let data = Buffer.contents s.rbuf in
  Buffer.clear s.rbuf;
  let rec go start =
    match String.index_from_opt data start '\n' with
    | None ->
      Buffer.add_substring s.rbuf data start (String.length data - start)
    | Some nl ->
      let line = String.sub data start (nl - start) in
      (match Wire.from_worker_of_line line with
      | Some f -> handle_frame ctx s f
      | None -> () (* torn/garbled line: skip *));
      go (nl + 1)
  in
  go 0

let retire ctx s =
  s.retired <- true;
  the_stats.degraded <- true;
  if ctx.progress then
    Printf.eprintf "worker %d: respawn budget exhausted, retiring slot\n%!"
      s.id;
  reroute ctx.pool s

let handle_death ctx s ~reason =
  let p = ctx.pool.policy in
  the_stats.deaths <- the_stats.deaths + 1;
  if Metrics.enabled () then Metrics.inc m_deaths;
  if Sink.on () then
    Sink.emit ~ns:(wall_ns ())
      (Ev.Worker_dead { worker = s.id; pid = s.pid; reason });
  if ctx.progress then
    Printf.eprintf "worker %d (pid %d) died: %s\n%!" s.id s.pid reason;
  close_slot_io s;
  s.pid <- 0;
  (match s.inflight with
  | Some (job, attempt) ->
    s.inflight <- None;
    let key = Jobs.key job in
    if attempt > p.retries then
      quarantine ctx ~key
        ~error:
          (Printf.sprintf "worker died (%s) on attempt %d of %d" reason
             attempt (p.retries + 1))
    else begin
      the_stats.job_retries <- the_stats.job_retries + 1;
      if Metrics.enabled () then Metrics.inc m_retries;
      if Sink.on () then
        Sink.emit ~ns:(wall_ns ()) (Ev.Job_retry { key; attempt });
      Option.iter (fun st -> Status.job_retried st ~key) ctx.status;
      s.queue <- (job, attempt + 1) :: s.queue
    end
  | None -> ());
  if s.queue <> [] then begin
    if ctx.pool.respawns_used >= p.respawn_budget then retire ctx s
    else
      s.respawn_at <-
        Clock.now_s () +. backoff_delay_s p ~slot:s.id ~nth:s.respawns
  end

let reap ctx =
  Array.iter
    (fun s ->
      if alive s then
        match Unix.waitpid [ Unix.WNOHANG ] s.pid with
        | 0, _ -> ()
        | _, st ->
          let reason =
            match s.kill_reason with
            | Some r -> r
            | None -> (
              match st with
              | Unix.WEXITED n -> Printf.sprintf "exit %d" n
              | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
              | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
          in
          handle_death ctx s ~reason
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          handle_death ctx s ~reason:"lost (ECHILD)")
    ctx.pool.slots

let check_timeouts ctx =
  let p = ctx.pool.policy in
  if p.worker_timeout_s > 0.0 then
    let now = Clock.now_s () in
    Array.iter
      (fun s ->
        if
          alive s && s.inflight <> None && s.kill_reason = None
          && now -. s.last_activity > p.worker_timeout_s
        then begin
          s.kill_reason <-
            Some
              (Printf.sprintf "heartbeat timeout (%.1fs silent)"
                 (now -. s.last_activity));
          try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)
      ctx.pool.slots

let check_chaos ctx =
  let pool = ctx.pool in
  match pool.policy.chaos_kill_after with
  | Some n when (not pool.chaos_fired) && pool.chaos_done >= n ->
    (* Prefer a busy victim so the kill actually exercises the retry
       path; chooser is seeded, so the victim is reproducible. *)
    let busy =
      Array.to_list pool.slots
      |> List.filter (fun s -> alive s && s.inflight <> None)
    in
    let candidates =
      if busy <> [] then busy
      else Array.to_list pool.slots |> List.filter alive
    in
    if candidates <> [] then begin
      pool.chaos_fired <- true;
      let arr = Array.of_list candidates in
      let victim = arr.(Rng.int pool.chaos_rng (Array.length arr)) in
      if ctx.progress then
        Printf.eprintf "chaos: SIGKILL worker %d (pid %d)\n%!" victim.id
          victim.pid;
      victim.kill_reason <- Some "chaos kill";
      try Unix.kill victim.pid Sys.sigkill with Unix.Unix_error _ -> ()
    end
  | _ -> ()

let check_respawns ctx ~heartbeat_every ~attrib_dir =
  let pool = ctx.pool in
  let p = pool.policy in
  let now = Clock.now_s () in
  Array.iter
    (fun s ->
      if (not (alive s)) && (not s.retired) && s.queue <> [] then
        if now >= s.respawn_at then begin
          if pool.respawns_used >= p.respawn_budget then retire ctx s
          else begin
            pool.respawns_used <- pool.respawns_used + 1;
            s.respawns <- s.respawns + 1;
            spawn ~heartbeat_every ~attrib_dir s
          end
        end)
    ctx.pool.slots

(* When every slot has retired, nothing will ever run the queued jobs:
   drain them into quarantine so the run still terminates with
   structured failures. *)
let drain_if_stranded ctx =
  if Array.for_all (fun s -> s.retired) ctx.pool.slots then
    Array.iter
      (fun s ->
        List.iter
          (fun (job, _) ->
            quarantine ctx ~key:(Jobs.key job)
              ~error:"no workers left (respawn budget exhausted)")
          s.queue;
        s.queue <- [])
      ctx.pool.slots

let select_tick ctx =
  let fds =
    Array.to_list ctx.pool.slots
    |> List.filter_map (fun s -> if alive s then s.from_w else None)
  in
  let ready =
    if fds = [] then []
    else
      match Unix.select fds [] [] 0.05 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let buf = Bytes.create 8192 in
  List.iter
    (fun fd ->
      match
        Array.to_list ctx.pool.slots
        |> List.find_opt (fun s -> s.from_w = Some fd)
      with
      | None -> ()
      | Some s -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 ->
          (* EOF: the worker closed stdout; death is confirmed (and
             the in-flight job handled) by the reaper. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          s.from_w <- None
        | n ->
          Buffer.add_subbytes s.rbuf buf 0 n;
          drain_slot_buffer ctx s
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          s.from_w <- None))
    ready

let shutdown () =
  match !current with
  | None -> ()
  | Some pool ->
    current := None;
    Array.iter
      (fun s ->
        if alive s then ignore (send_frame s Wire.Quit);
        close_slot_io s)
      pool.slots;
    (* Give workers a moment to exit on Quit/EOF, then force. *)
    let deadline = Clock.now_s () +. 2.0 in
    Array.iter
      (fun s ->
        if alive s then begin
          let rec wait () =
            match Unix.waitpid [ Unix.WNOHANG ] s.pid with
            | 0, _ ->
              if Clock.now_s () < deadline then begin
                ignore (Unix.select [] [] [] 0.02);
                wait ()
              end
              else begin
                (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
                ignore (try Unix.waitpid [] s.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
              end
            | _ -> ()
            | exception Unix.Unix_error _ -> ()
          in
          wait ();
          s.pid <- 0
        end)
      pool.slots

let fresh_pool p =
  {
    policy = p;
    slots =
      Array.init p.workers (fun id ->
          {
            id;
            pid = 0;
            to_w = None;
            from_w = None;
            rbuf = Buffer.create 256;
            queue = [];
            inflight = None;
            last_activity = 0.0;
            respawns = 0;
            respawn_at = 0.0;
            kill_reason = None;
            retired = false;
          });
    respawns_used = 0;
    chaos_rng = Rng.create (p.seed lxor 0x5eed);
    chaos_done = 0;
    chaos_fired = false;
  }

let obtain_pool p =
  match !current with
  | Some pool when pool.policy = p -> pool
  | Some _ ->
    shutdown ();
    let pool = fresh_pool p in
    current := Some pool;
    pool
  | None ->
    let pool = fresh_pool p in
    current := Some pool;
    pool

let run ~policy:p ?(progress = false) ?(heartbeat_every = 0) ?status ?flight
    ?export ?attrib_dir ?rcache ?(budget = fun _ -> None) pending =
  (* A dead worker must surface as a reaped pid, never a SIGPIPE. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  (* Liveness needs a signal: force heartbeats on when a timeout is
     armed but the caller didn't ask for beats. *)
  let heartbeat_every =
    if p.worker_timeout_s > 0.0 && heartbeat_every <= 0 then Hb.default_every
    else heartbeat_every
  in
  let pool = obtain_pool p in
  let ctx =
    {
      pool;
      progress;
      status;
      flight;
      export;
      rcache;
      budget;
      remaining = List.length pending;
      total = List.length pending;
      finished = 0;
    }
  in
  (* Route: stable hash over non-retired slots (sorted by id — the
     array order), so a re-run distributes identically. *)
  let routable =
    Array.to_list pool.slots |> List.filter (fun s -> not s.retired)
  in
  (match routable with
  | [] ->
    List.iter
      (fun job ->
        quarantine ctx ~key:(Jobs.key job)
          ~error:"no workers left (respawn budget exhausted)")
      pending
  | routable ->
    let arr = Array.of_list routable in
    List.iter
      (fun job ->
        let s = arr.(route_hash (Jobs.key job) mod Array.length arr) in
        s.queue <- s.queue @ [ (job, 1) ])
      pending;
    (* (Re)spawn every slot that has work and no live process;
       re-send Init to survivors so per-run config is fresh. *)
    Array.iter
      (fun s ->
        if s.retired then ()
        else if alive s then
          ignore (send_frame s (Wire.Init { heartbeat_every; attrib_dir }))
        else if s.queue <> [] then spawn ~heartbeat_every ~attrib_dir s)
      pool.slots;
    while ctx.remaining > 0 do
      Array.iter (fun s -> dispatch ctx s) pool.slots;
      select_tick ctx;
      reap ctx;
      check_timeouts ctx;
      check_chaos ctx;
      check_respawns ctx ~heartbeat_every ~attrib_dir;
      drain_if_stranded ctx
    done)
