module M = Sweep_machine.Machine_intf
module Cost = Sweep_machine.Cost
module Exec = Sweep_machine.Exec
module Mstats = Sweep_machine.Mstats
module Capacitor = Sweep_energy.Capacitor
module Detector = Sweep_energy.Detector
module Trace = Sweep_energy.Power_trace
module Sink = Sweep_obs.Sink
module Ev = Sweep_obs.Event
module Hb = Sweep_obs.Heartbeat
module Attrib = Sweep_obs.Attrib
module Nvm = Sweep_mem.Nvm
module Cache = Sweep_mem.Cache
module Cpu = Sweep_machine.Cpu

(* Per-PC attribution rides both cycle loops branchlessly: the loops
   always index the counter arrays with [pc land at.mask] (-1 armed, 0
   disabled — see {!Sweep_obs.Attrib}), so a run without a profiler
   pays a handful of dead stores into a one-slot buffer instead of a
   branch.  A disabled sink still tracks the since-last-commit
   instruction count in its slot 0 (every PC aliases there), which is
   exactly the whole-run discarded-work total — so the [Ev.Reexec]
   counter track is live in every traced run, profiler armed or not.
   Cacheless designs attribute against a hoisted dummy cache whose
   miss counter never moves. *)
let dummy_cache () = Cache.create ~size_bytes:64 ~assoc:1

type power =
  | Unlimited
  | Harvested of {
      trace : Trace.t;
      capacitor_farads : float;
      v_max : float;
      v_min : float;
    }

let harvested ?(v_max = 3.5) ?(v_min = 2.8) ~trace ~farads () =
  Harvested { trace; capacitor_farads = farads; v_max; v_min }

type outcome = {
  completed : bool;
  on_ns : float;
  off_ns : float;
  outages : int;
  deaths : int;
  backups : int;
  failed_backups : int;
  compute_joules : float;
  backup_joules : float;
  restore_joules : float;
  quiescent_joules : float;
  instructions : int;
  injected_faults : int;
}

let total_ns o = o.on_ns +. o.off_ns

let total_joules o =
  o.compute_joules +. o.backup_joules +. o.restore_joules +. o.quiescent_joules

exception Stagnation of string

let ns_to_s ns = ns *. 1.0e-9

(* ------------------------------------------------------------------ *)
(* Fault-trigger bookkeeping shared by both power modes.  [watch]
   attaches a Sink spy for event triggers (sequential runs only) and
   returns a detach closure; [fault_due] is checked once per completed
   instruction. *)

type fault_watch = {
  fault : Fault.t option;
  fire_at : int;
      (* The instruction count an [At_instruction] plan fires at;
         [max_int] for any other plan, or none. *)
  mutable fired : bool;
  mutable event_pending : bool;
  mutable detach : (unit -> unit) option;
}

let watch_fault fault =
  let fire_at =
    match fault with
    | Some { Fault.trigger = Fault.At_instruction n; _ } -> n
    | Some _ | None -> max_int
  in
  let w =
    { fault; fire_at; fired = false; event_pending = false; detach = None }
  in
  (match fault with
  | Some { Fault.trigger = Fault.At_event { tag; nth }; _ } ->
    let hits = ref 0 in
    w.detach <-
      Some
        (Sink.spy (fun ~ns:_ ev ->
             if (not w.fired) && (not w.event_pending) && Ev.tag ev = tag
             then begin
               incr hits;
               if !hits >= nth then w.event_pending <- true
             end))
  | Some _ | None -> ());
  w

let unwatch_fault w =
  Option.iter (fun d -> d ()) w.detach;
  w.detach <- None

(* Two int compares and a flag test, inlined into both cycle loops: an
   instruction plan is due once its count is reached, an event plan
   once its spy has seen the [nth] event. *)
let[@inline] fault_due w ~instructions =
  (instructions >= w.fire_at || w.event_pending) && not w.fired

(* ------------------------------------------------------------------ *)

(* All-float mutable totals: mutating a float field of a flat float
   record writes in place, so the cycle loop allocates nothing.  (Float
   refs or a mixed record would box a fresh float per store.) *)
type utotals = {
  mutable u_now : float;
  mutable u_joules : float;
  mutable u_restore_joules : float;
}

(* Both cycle loops take the design unpacked: [D.step]/[D.halted] are
   then one indirect call each, with no [Machine_intf] wrapper in
   between, and the counters the attribution reads ([Nvm.t], [Cache.t],
   [Mstats.t]) are field loads.  See DESIGN.md, "Hot-path rule". *)
let run_unlimited (type a) ?(max_instructions = 500_000_000) ?sim_budget_ns
    ?fault ?after_recovery ?heartbeat ?attrib (module D : M.S with type t = a)
    (m : a) =
  let tt = { u_now = 0.0; u_joules = 0.0; u_restore_joules = 0.0 } in
  let acc = D.acc m in
  let at = match attrib with Some a -> a | None -> Attrib.disabled () in
  let cpu = D.cpu m in
  let nvm = D.nvm m in
  let mst = D.mstats m in
  let acache = match D.cache m with Some c -> c | None -> dummy_cache () in
  let instructions = ref 0 in
  let outages = ref 0 in
  let injected = ref 0 in
  let budget =
    match sim_budget_ns with Some b -> b | None -> Float.infinity
  in
  let hb = match heartbeat with Some h -> h | None -> Hb.disabled () in
  let w = watch_fault fault in
  Fun.protect ~finally:(fun () -> unwatch_fault w) @@ fun () ->
  (* One injected crash under unlimited power: no capacitor, so the
     off period is instantaneous — the machine's power-failure and
     recovery paths run, execution resumes at the recovered PC. *)
  let crash ~trigger ~detail =
    incr injected;
    incr outages;
    let pc0 = cpu.Cpu.pc in
    let w0 = nvm.Nvm.write_events in
    let mi0 = acache.Cache.misses in
    (* A JIT design never dies without its banked backup (the backup
       threshold sits above Vmin), so an adversarial crash still finds
       a fresh checkpoint: commit one at the crash point. *)
    if D.jit_backup_cost m <> None then begin
      D.commit_jit_backup m ~now_ns:tt.u_now;
      Attrib.note_commit at
    end;
    if Sink.on () then begin
      Sink.emit ~ns:tt.u_now (Ev.Fault_inject { trigger; detail });
      Sink.emit ~ns:tt.u_now (Ev.Power_down { volts = 0.0 })
    end;
    D.on_power_failure m ~now_ns:tt.u_now;
    let discarded = Attrib.note_crash at ~pc:pc0 in
    if Sink.on () then begin
      Sink.emit ~ns:tt.u_now (Ev.Reexec { discarded });
      Sink.emit ~ns:tt.u_now (Ev.Reboot { outage = !outages })
    end;
    let c = D.on_reboot m ~now_ns:tt.u_now in
    tt.u_now <- tt.u_now +. c.Cost.ns;
    tt.u_restore_joules <- tt.u_restore_joules +. c.Cost.joules;
    Attrib.note_cold at ~pc:pc0
      ~nvm_writes:(nvm.Nvm.write_events - w0)
      ~cache_misses:(acache.Cache.misses - mi0)
      ~ns:c.Cost.ns ~restore_joules:c.Cost.joules ();
    if Sink.on () then
      Sink.emit ~ns:tt.u_now (Ev.Restore { joules = c.Cost.joules });
    match after_recovery with Some f -> f ~now_ns:tt.u_now | None -> ()
  in
  while
    (not (D.halted m)) && !instructions < max_instructions
    && tt.u_now <= budget
  do
    (* Attribution pre-reads: the PC about to execute and the
       monotonic machine counters whose per-step deltas get charged to
       it.  All int reads except the stall total, which stays unboxed
       in a register (cmmgen unboxes float lets whose uses are float
       ops — same discipline as the loop totals below). *)
    let pc = cpu.Cpu.pc in
    let w0 = nvm.Nvm.write_events in
    let mi0 = acache.Cache.misses in
    let st0 = mst.Mstats.f.Mstats.wait_ns +. mst.Mstats.f.Mstats.waw_stall_ns in
    let rg0 = mst.Mstats.regions in
    acc.Exec.Acc.now <- tt.u_now;
    D.step m;
    tt.u_now <- tt.u_now +. acc.Exec.Acc.ns;
    tt.u_joules <- tt.u_joules +. acc.Exec.Acc.joules;
    incr instructions;
    (* Unconditional attribution stores ([i] = 0 when disabled): int
       adds, unboxed float adds, and the epoch/stamp/delta re-execution
       bookkeeping.  The epoch bump uses the step's region-count delta,
       so a retiring region boundary commits its own instruction. *)
    let i = pc land at.Attrib.mask in
    Array.unsafe_set at.Attrib.count i (Array.unsafe_get at.Attrib.count i + 1);
    Array.unsafe_set at.Attrib.ns i
      (Array.unsafe_get at.Attrib.ns i +. acc.Exec.Acc.ns);
    Array.unsafe_set at.Attrib.joules i
      (Array.unsafe_get at.Attrib.joules i +. acc.Exec.Acc.joules);
    Array.unsafe_set at.Attrib.nvm_writes i
      (Array.unsafe_get at.Attrib.nvm_writes i + (nvm.Nvm.write_events - w0));
    Array.unsafe_set at.Attrib.cache_misses i
      (Array.unsafe_get at.Attrib.cache_misses i + (acache.Cache.misses - mi0));
    Array.unsafe_set at.Attrib.stall_ns i
      (Array.unsafe_get at.Attrib.stall_ns i
      +. (mst.Mstats.f.Mstats.wait_ns +. mst.Mstats.f.Mstats.waw_stall_ns -. st0
         ));
    if Array.unsafe_get at.Attrib.stamp i = at.Attrib.epoch then
      Array.unsafe_set at.Attrib.delta i (Array.unsafe_get at.Attrib.delta i + 1)
    else begin
      Array.unsafe_set at.Attrib.stamp i at.Attrib.epoch;
      Array.unsafe_set at.Attrib.delta i 1
    end;
    at.Attrib.epoch <- at.Attrib.epoch + (mst.Mstats.regions - rg0);
    (* Amortized liveness beat: two machine ops per instruction, the
       rest on the cold [fire] path every [hb.every] instructions. *)
    hb.Hb.countdown <- hb.Hb.countdown - 1;
    if hb.Hb.countdown <= 0 then
      Hb.fire hb ~sim_ns:tt.u_now ~instructions:!instructions
        ~reboots:!outages ~nvm_writes:nvm.Nvm.write_events;
    if fault_due w ~instructions:!instructions then
      match w.fault with
      | Some f ->
        w.fired <- true;
        crash ~trigger:(Fault.trigger_kind f.Fault.trigger)
          ~detail:(Fault.describe f);
        for _ = 1 to f.Fault.nested do
          crash ~trigger:"nested" ~detail:(Fault.describe f)
        done
      | None -> ()
  done;
  let completed = D.halted m in
  (* Running out of the simulated-time budget is a graceful partial
     stop (the early-stop path); only the instruction guard is an
     error.  A partial machine is left undrained. *)
  if (not completed) && tt.u_now <= budget then
    raise (Stagnation "instruction guard exceeded without Halt");
  if completed then begin
    let pc0 = cpu.Cpu.pc in
    let w0 = nvm.Nvm.write_events in
    let d = D.drain m ~now_ns:tt.u_now in
    tt.u_now <- tt.u_now +. d.Cost.ns;
    tt.u_joules <- tt.u_joules +. d.Cost.joules;
    Attrib.note_cold at ~pc:pc0
      ~nvm_writes:(nvm.Nvm.write_events - w0)
      ~ns:d.Cost.ns ~joules:d.Cost.joules ()
  end;
  {
    completed;
    on_ns = tt.u_now;
    off_ns = 0.0;
    outages = !outages;
    deaths = 0;
    backups = 0;
    failed_backups = 0;
    compute_joules = tt.u_joules;
    backup_joules = 0.0;
    restore_joules = tt.u_restore_joules;
    quiescent_joules = 0.0;
    instructions = !instructions;
    injected_faults = !injected;
  }

(* ------------------------------------------------------------------ *)

(* Same flat-float-record discipline as {!utotals}: every float the
   harvested loop mutates per instruction lives here, nested inside the
   mixed {!harv_state}. *)
type harv_totals = {
  mutable now : float; (* ns *)
  mutable on_ns : float;
  mutable off_ns : float;
  mutable compute_joules : float;
  mutable backup_joules : float;
  mutable restore_joules : float;
  mutable quiescent_joules : float;
  mutable trace_p : float;
      (* Cached [Trace.power] sample for the hot loop, valid while
         [now < trace_edge].  The trace is a 100 µs zero-order hold and
         steps advance time by nanoseconds, so the sample only changes
         every ~10⁴–10⁵ instructions; caching turns the per-instruction
         lookup (float divide, truncation, integer modulo, array load)
         into one float compare. *)
  mutable trace_edge : float;
      (* Conservative lower bound (ns) on the next sample boundary:
         always <= the true edge, so a stale sample is never used; -inf
         initially and whenever nothing is cached.  Cold paths advance
         [now] without touching it — [now] is monotonic, so crossing the
         bound just forces a recompute. *)
}

type 'a harv_state = {
  d : (module M.S with type t = 'a);
  m : 'a;
  trace : Trace.t;
  cap : Capacitor.t;
  det : Detector.t;
  p_quiescent : float;
  at : Attrib.t;
  f : harv_totals;
  mutable outages : int;
  mutable deaths : int;
  mutable backups : int;
  mutable failed_backups : int;
  mutable instructions : int;
  mutable backup_armed : bool;
  mutable injected_faults : int;
}

(* Advance wall time by [ns] while powered on: harvest plus quiescent
   detector draw. *)
let pass_time_on s ns =
  if ns > 0.0 then begin
    let dt = ns_to_s ns in
    let pq = s.p_quiescent *. dt in
    Capacitor.consume s.cap pq;
    s.f.quiescent_joules <- s.f.quiescent_joules +. pq;
    Capacitor.harvest s.cap
      ~power_w:(Trace.power s.trace (ns_to_s s.f.now))
      ~dt_s:dt;
    s.f.now <- s.f.now +. ns;
    s.f.on_ns <- s.f.on_ns +. ns
  end

(* Dead/charging: integrate the trace at its own resolution until the
   voltage reaches [target]. *)
let charge_until s target ~max_off_s =
  let dt = 1.0e-4 in
  let waited = ref 0.0 in
  let steps = ref 0 in
  while (not (Capacitor.above s.cap target)) && !waited < max_off_s do
    (* Sample the recharge ramp sparsely for the voltage counter track. *)
    if Sink.on () && !steps mod 100 = 0 then
      Sink.emit ~ns:s.f.now (Ev.Voltage { volts = Capacitor.voltage s.cap });
    incr steps;
    (* Apply the net power over the step: harvesting and the detector
       draw are simultaneous, so clamping at Vmax must see the
       difference, not harvest-then-consume (which would cap a small
       capacitor's steady state a whole quiescent-step below Vmax). *)
    let p = Trace.power s.trace (ns_to_s s.f.now) in
    let net = p -. s.p_quiescent in
    if net >= 0.0 then Capacitor.harvest s.cap ~power_w:net ~dt_s:dt
    else Capacitor.consume s.cap (-.net *. dt);
    s.f.quiescent_joules <- s.f.quiescent_joules +. (s.p_quiescent *. dt);
    s.f.now <- s.f.now +. (dt *. 1.0e9);
    s.f.off_ns <- s.f.off_ns +. (dt *. 1.0e9);
    waited := !waited +. dt
  done;
  if not (Capacitor.above s.cap target) then
    raise
      (Stagnation
         (Printf.sprintf
            "charging stalled: harvest cannot reach %.2f V (detector draw %.0f uW)"
            target (s.p_quiescent *. 1.0e6)))

(* Propagation delay: time passes with quiescent draw only. *)
let propagation_delay s ns state =
  let dt = ns_to_s ns in
  let pq = s.p_quiescent *. dt in
  Capacitor.consume s.cap pq;
  s.f.quiescent_joules <- s.f.quiescent_joules +. pq;
  Capacitor.harvest s.cap
    ~power_w:(Trace.power s.trace (ns_to_s s.f.now))
    ~dt_s:dt;
  s.f.now <- s.f.now +. ns;
  match state with
  | `On -> s.f.on_ns <- s.f.on_ns +. ns
  | `Off -> s.f.off_ns <- s.f.off_ns +. ns

(* Power-down / charge / reboot sequence shared by JIT stops, hard
   deaths and injected faults.  [after_recovery] (the differential
   checker's hook) observes the machine right after every recovery. *)
let power_cycle (type a) ?after_recovery (s : a harv_state) ~max_off_s =
  let module D = (val s.d : M.S with type t = a) in
  s.outages <- s.outages + 1;
  let pc0 = (D.cpu s.m).Cpu.pc in
  let w0 = Nvm.write_events (D.nvm s.m) in
  let mi0 = match D.cache s.m with Some c -> Cache.misses c | None -> 0 in
  if Sink.on () then
    Sink.emit ~ns:s.f.now (Ev.Power_down { volts = Capacitor.voltage s.cap });
  D.on_power_failure s.m ~now_ns:s.f.now;
  let discarded = Attrib.note_crash s.at ~pc:pc0 in
  if Sink.on () then Sink.emit ~ns:s.f.now (Ev.Reexec { discarded });
  charge_until s s.det.Detector.v_restore ~max_off_s;
  propagation_delay s s.det.Detector.t_plh_ns `Off;
  if Sink.on () then begin
    Sink.emit ~ns:s.f.now (Ev.Reboot { outage = s.outages });
    Sink.emit ~ns:s.f.now (Ev.Voltage { volts = Capacitor.voltage s.cap })
  end;
  let c = D.on_reboot s.m ~now_ns:s.f.now in
  Capacitor.consume s.cap c.Cost.joules;
  s.f.restore_joules <- s.f.restore_joules +. c.Cost.joules;
  let mi1 = match D.cache s.m with Some c -> Cache.misses c | None -> 0 in
  Attrib.note_cold s.at ~pc:pc0
    ~nvm_writes:(Nvm.write_events (D.nvm s.m) - w0)
    ~cache_misses:(mi1 - mi0) ~ns:c.Cost.ns ~restore_joules:c.Cost.joules ();
  if Sink.on () then
    Sink.emit ~ns:s.f.now (Ev.Restore { joules = c.Cost.joules });
  pass_time_on s c.Cost.ns;
  s.backup_armed <- true;
  match after_recovery with Some f -> f ~now_ns:s.f.now | None -> ()

let try_backup (type a) (s : a harv_state) v_min =
  let module D = (val s.d : M.S with type t = a) in
  (* Detection propagation delay passes first (§2.2). *)
  propagation_delay s s.det.Detector.t_phl_ns `On;
  match D.jit_backup_cost s.m with
  | None -> assert false
  | Some cost ->
    let available = Capacitor.usable_above s.cap v_min in
    if cost.Cost.joules <= available then begin
      let pc0 = (D.cpu s.m).Cpu.pc in
      let w0 = Nvm.write_events (D.nvm s.m) in
      D.commit_jit_backup s.m ~now_ns:s.f.now;
      Attrib.note_commit s.at;
      Attrib.note_cold s.at ~pc:pc0
        ~nvm_writes:(Nvm.write_events (D.nvm s.m) - w0)
        ~ns:cost.Cost.ns ~backup_joules:cost.Cost.joules ();
      Capacitor.consume s.cap cost.Cost.joules;
      s.f.backup_joules <- s.f.backup_joules +. cost.Cost.joules;
      (D.mstats s.m).Mstats.backup_events <-
        (D.mstats s.m).Mstats.backup_events + 1;
      (D.mstats s.m).Mstats.f.Mstats.backup_joules <-
        (D.mstats s.m).Mstats.f.Mstats.backup_joules +. cost.Cost.joules;
      pass_time_on s cost.Cost.ns;
      s.backups <- s.backups + 1;
      if Sink.on () then
        Sink.emit ~ns:s.f.now (Ev.Backup { ok = true; joules = cost.Cost.joules });
      true
    end
    else begin
      s.failed_backups <- s.failed_backups + 1;
      if Sink.on () then
        Sink.emit ~ns:s.f.now (Ev.Backup { ok = false; joules = cost.Cost.joules });
      false
    end

let run_harvested (type a) ?(max_instructions = 500_000_000)
    ?(max_sim_s = 600.0) ?sim_budget_ns ?fault ?after_recovery ?heartbeat
    ?attrib (module D : M.S with type t = a) (m : a) ~trace ~farads ~v_max
    ~v_min =
  let det = D.detector m in
  let s =
    {
      d = (module D);
      m;
      trace;
      cap = Capacitor.create ~farads ~v_max ~v_min;
      det;
      p_quiescent = Detector.quiescent_power_w det;
      at = (match attrib with Some a -> a | None -> Attrib.disabled ());
      f =
        {
          now = 0.0;
          on_ns = 0.0;
          off_ns = 0.0;
          compute_joules = 0.0;
          backup_joules = 0.0;
          restore_joules = 0.0;
          quiescent_joules = 0.0;
          trace_p = 0.0;
          trace_edge = Float.neg_infinity;
        };
      outages = 0;
      deaths = 0;
      backups = 0;
      failed_backups = 0;
      instructions = 0;
      backup_armed = true;
      injected_faults = 0;
    }
  in
  let acc = D.acc m in
  let at = s.at in
  let cpu = D.cpu m in
  let nvm = D.nvm m in
  let mst = D.mstats m in
  let acache = match D.cache m with Some c -> c | None -> dummy_cache () in
  let max_off_s = 120.0 in
  let has_jit = D.jit_backup_cost m <> None in
  (* Hot-loop flattening: the per-instruction block below does all its
     capacitor/trace arithmetic by direct field access on the flat
     [Capacitor.t] and the trace's hoisted base grid and factor.  Calling
     [Capacitor.consume]/[harvest]/[above] or [Trace.power] here would
     box their computed float arguments on every dynamic instruction
     (non-flambda), which used to cost ~11 minor words/instr and
     dominate harvested-mode wall-clock.  The voltage thresholds are
     hoisted as energies ([above t v] ⇔ [energy >= ½Cv² - 1e-18]); a
     missing backup threshold becomes -∞ so the comparison is always
     false, matching the [None -> false] arm it replaces.  Cold paths
     (outages, charging, backup) keep the readable module calls. *)
  let cap = s.cap in
  let tr_base = Trace.base trace and tr_factor = Trace.factor trace in
  let tr_dt = Trace.sample_dt trace and tr_n = Trace.length trace in
  let p_quiescent = s.p_quiescent in
  let th_restore = Capacitor.energy_at cap det.Detector.v_restore -. 1e-18 in
  let th_vmin = Capacitor.energy_at cap v_min -. 1e-18 in
  let th_backup =
    match det.Detector.v_backup with
    | Some vb -> Capacitor.energy_at cap vb -. 1e-18
    | None -> Float.neg_infinity
  in
  let budget =
    match sim_budget_ns with Some b -> b | None -> Float.infinity
  in
  let hb = match heartbeat with Some h -> h | None -> Hb.disabled () in
  let w = watch_fault fault in
  (* An injected crash behaves like a death at the crash point, except a
     JIT design first banks the backup its detector would have banked
     (the backup threshold sits above Vmin, so a crash with no fresh
     checkpoint is physically impossible under the detector model). *)
  let inject s f ~trigger =
    s.injected_faults <- s.injected_faults + 1;
    if has_jit then begin
      match D.jit_backup_cost m with
      | Some cost ->
        let pc0 = cpu.Cpu.pc in
        let w0 = nvm.Nvm.write_events in
        D.commit_jit_backup m ~now_ns:s.f.now;
        Attrib.note_commit s.at;
        (* The inject path charges the backup's joules but not its ns
           (the outage swallows it); attribution mirrors that. *)
        Attrib.note_cold s.at ~pc:pc0
          ~nvm_writes:(nvm.Nvm.write_events - w0)
          ~backup_joules:cost.Cost.joules ();
        Capacitor.consume s.cap cost.Cost.joules;
        s.f.backup_joules <- s.f.backup_joules +. cost.Cost.joules;
        mst.Mstats.backup_events <- mst.Mstats.backup_events + 1;
        mst.Mstats.f.Mstats.backup_joules <-
          mst.Mstats.f.Mstats.backup_joules +. cost.Cost.joules;
        s.backups <- s.backups + 1;
        if Sink.on () then
          Sink.emit ~ns:s.f.now
            (Ev.Backup { ok = true; joules = cost.Cost.joules })
      | None -> ()
    end;
    if Sink.on () then
      Sink.emit ~ns:s.f.now
        (Ev.Fault_inject { trigger; detail = Fault.describe f });
    power_cycle ?after_recovery s ~max_off_s
  in
  Fun.protect ~finally:(fun () -> unwatch_fault w) @@ fun () ->
  while (not (D.halted m)) && s.f.now <= budget do
    if s.instructions > max_instructions then
      raise (Stagnation "instruction guard exceeded");
    if s.f.now *. 1.0e-9 > max_sim_s then
      raise (Stagnation "simulated-time guard exceeded");
    (* Re-arm the backup trigger once the voltage has recovered. *)
    if (not s.backup_armed) && cap.Capacitor.energy >= th_restore then
      s.backup_armed <- true;
    if has_jit && s.backup_armed && cap.Capacitor.energy < th_backup then begin
      s.backup_armed <- false;
      let ok = try_backup s v_min in
      if D.continues_after_backup && ok then
        (* NvMR: keep running on the remaining charge. *)
        ()
      else
        (* Backup (or its failure) is followed by power-down. *)
        power_cycle ?after_recovery s ~max_off_s
    end
    else if cap.Capacitor.energy < th_vmin then begin
      (* Hard death: volatile state is lost. *)
      s.deaths <- s.deaths + 1;
      if Sink.on () then
        Sink.emit ~ns:s.f.now (Ev.Death { volts = Capacitor.voltage s.cap });
      power_cycle ?after_recovery s ~max_off_s
    end
    else begin
      (* Attribution pre-reads (see run_unlimited). *)
      let pc = cpu.Cpu.pc in
      let w0 = nvm.Nvm.write_events in
      let mi0 = acache.Cache.misses in
      let st0 =
        mst.Mstats.f.Mstats.wait_ns +. mst.Mstats.f.Mstats.waw_stall_ns
      in
      let rg0 = mst.Mstats.regions in
      acc.Exec.Acc.now <- s.f.now;
      D.step m;
      let step_ns = acc.Exec.Acc.ns and step_joules = acc.Exec.Acc.joules in
      let i = pc land at.Attrib.mask in
      Array.unsafe_set at.Attrib.count i
        (Array.unsafe_get at.Attrib.count i + 1);
      Array.unsafe_set at.Attrib.ns i
        (Array.unsafe_get at.Attrib.ns i +. step_ns);
      Array.unsafe_set at.Attrib.joules i
        (Array.unsafe_get at.Attrib.joules i +. step_joules);
      Array.unsafe_set at.Attrib.nvm_writes i
        (Array.unsafe_get at.Attrib.nvm_writes i + (nvm.Nvm.write_events - w0));
      Array.unsafe_set at.Attrib.cache_misses i
        (Array.unsafe_get at.Attrib.cache_misses i
        + (acache.Cache.misses - mi0));
      Array.unsafe_set at.Attrib.stall_ns i
        (Array.unsafe_get at.Attrib.stall_ns i
        +. (mst.Mstats.f.Mstats.wait_ns
           +. mst.Mstats.f.Mstats.waw_stall_ns -. st0));
      if Array.unsafe_get at.Attrib.stamp i = at.Attrib.epoch then
        Array.unsafe_set at.Attrib.delta i
          (Array.unsafe_get at.Attrib.delta i + 1)
      else begin
        Array.unsafe_set at.Attrib.stamp i at.Attrib.epoch;
        Array.unsafe_set at.Attrib.delta i 1
      end;
      at.Attrib.epoch <- at.Attrib.epoch + (mst.Mstats.regions - rg0);
      (* Capacitor.consume, inlined. *)
      let e = cap.Capacitor.energy -. step_joules in
      cap.Capacitor.energy <- (if e > 0.0 then e else 0.0);
      s.f.compute_joules <- s.f.compute_joules +. step_joules;
      (* pass_time_on, inlined: quiescent draw, then harvest at the
         pre-advance timestamp (same order as the function). *)
      if step_ns > 0.0 then begin
        let dt = step_ns *. 1.0e-9 in
        let pq = p_quiescent *. dt in
        let e = cap.Capacitor.energy -. pq in
        cap.Capacitor.energy <- (if e > 0.0 then e else 0.0);
        s.f.quiescent_joules <- s.f.quiescent_joules +. pq;
        (* Trace sample, from the cache while [now] stays inside the
           current 100 µs hold interval.  On a recompute: [now] never
           goes backwards from 0, so [idx] is non-negative and one [mod]
           reproduces [Trace.power]'s wraparound, and [Trace.sample]
           is spelled out over [source_index] so no float is boxed; the
           refreshed edge is shrunk by a relative 1e-6 (≫ any rounding
           error, ≪ the interval) so it can never land past the true
           boundary. *)
        if s.f.now >= s.f.trace_edge then begin
          let idx = int_of_float (s.f.now *. 1.0e-9 /. tr_dt) in
          let k = Trace.source_index trace (idx mod tr_n) in
          s.f.trace_p <-
            (if k < 0 then 0.0 else Array.unsafe_get tr_base k *. tr_factor);
          s.f.trace_edge <-
            float_of_int (idx + 1) *. tr_dt *. 1.0e9 *. 0.999999
        end;
        let p = s.f.trace_p in
        let e = cap.Capacitor.energy +. (p *. dt) in
        cap.Capacitor.energy <-
          (if e < cap.Capacitor.e_max then e else cap.Capacitor.e_max);
        s.f.now <- s.f.now +. step_ns;
        s.f.on_ns <- s.f.on_ns +. step_ns
      end;
      s.instructions <- s.instructions + 1;
      (* Amortized liveness beat (compare + subtract per instruction;
         everything else is on the cold fire path). *)
      hb.Hb.countdown <- hb.Hb.countdown - 1;
      if hb.Hb.countdown <= 0 then
        Hb.fire hb ~sim_ns:s.f.now ~instructions:s.instructions
          ~reboots:s.outages ~nvm_writes:nvm.Nvm.write_events;
      (* Sparse voltage samples while executing keep the counter track
         legible without swamping the trace (the modulus first, so the
         [Sink.on] call is off the per-instruction path). *)
      if s.instructions mod 5_000 = 0 && Sink.on () then
        Sink.emit ~ns:s.f.now (Ev.Voltage { volts = Capacitor.voltage s.cap });
      if fault_due w ~instructions:s.instructions then
        match w.fault with
        | Some f ->
          w.fired <- true;
          inject s f ~trigger:(Fault.trigger_kind f.Fault.trigger);
          for _ = 1 to f.Fault.nested do inject s f ~trigger:"nested" done
        | None -> ()
    end
  done;
  let completed = D.halted m in
  (* A budget stop leaves the machine undrained: the outcome reports
     partial progress with [completed = false]. *)
  if completed then begin
    let pc0 = cpu.Cpu.pc in
    let w0 = nvm.Nvm.write_events in
    let d = D.drain m ~now_ns:s.f.now in
    Capacitor.consume s.cap d.Cost.joules;
    s.f.compute_joules <- s.f.compute_joules +. d.Cost.joules;
    Attrib.note_cold at ~pc:pc0
      ~nvm_writes:(nvm.Nvm.write_events - w0)
      ~ns:d.Cost.ns ~joules:d.Cost.joules ();
    pass_time_on s d.Cost.ns
  end;
  {
    completed;
    on_ns = s.f.on_ns;
    off_ns = s.f.off_ns;
    outages = s.outages;
    deaths = s.deaths;
    backups = s.backups;
    failed_backups = s.failed_backups;
    compute_joules = s.f.compute_joules;
    backup_joules = s.f.backup_joules;
    restore_joules = s.f.restore_joules;
    quiescent_joules = s.f.quiescent_joules;
    instructions = s.instructions;
    injected_faults = s.injected_faults;
  }

module Metrics = Sweep_obs.Metrics

(* Accumulate a finished run's outcome into the global metrics registry. *)
let publish_outcome ?(labels = []) (o : outcome) =
  if Metrics.enabled () then begin
    let c name v = Metrics.add (Metrics.counter ~labels name) v in
    c "driver.runs" 1;
    c "driver.outages" o.outages;
    c "driver.deaths" o.deaths;
    c "driver.backups" o.backups;
    c "driver.failed_backups" o.failed_backups;
    c "driver.instructions" o.instructions;
    Metrics.observe
      (Metrics.histogram ~labels "driver.on_fraction_pct"
         ~buckets:[| 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 |])
      (if total_ns o <= 0.0 then 100.0 else o.on_ns /. total_ns o *. 100.0)
  end

let run ?max_instructions ?max_sim_s ?sim_budget_ns ?fault ?after_recovery
    ?heartbeat ?attrib (M.Packed (d, m)) ~power =
  let o =
    match power with
    | Unlimited ->
      run_unlimited ?max_instructions ?sim_budget_ns ?fault ?after_recovery
        ?heartbeat ?attrib d m
    | Harvested { trace; capacitor_farads; v_max; v_min } ->
      run_harvested ?max_instructions ?max_sim_s ?sim_budget_ns ?fault
        ?after_recovery ?heartbeat ?attrib d m ~trace ~farads:capacitor_farads
        ~v_max ~v_min
  in
  publish_outcome o;
  o
