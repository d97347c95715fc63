(* The time/energy accumulators live in their own all-float record: a
   mutable float field in the mixed record below would be boxed on
   every write, and persistence_ns/wait_ns are written at every region
   boundary on the hot path. *)
type floats = {
  mutable persistence_ns : float;
  mutable wait_ns : float;
  mutable waw_stall_ns : float;
  mutable backup_joules : float;
  mutable restore_joules : float;
}

type t = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable regions : int;
  mutable buffer_searches : int;
  mutable buffer_bypasses : int;
  mutable buffer_hits : int;
  f : floats;
  mutable backup_events : int;
  mutable restore_events : int;
  mutable replayed_stores : int;
  mutable buffer_peak : int;
  region_size_hist : int array;
  region_store_hist : int array;
  mutable cur_region_instrs : int;
  mutable cur_region_stores : int;
}

let size_cap = 512
let store_cap = 128

let create () =
  {
    instructions = 0;
    loads = 0;
    stores = 0;
    regions = 0;
    buffer_searches = 0;
    buffer_bypasses = 0;
    buffer_hits = 0;
    f =
      {
        persistence_ns = 0.0;
        wait_ns = 0.0;
        waw_stall_ns = 0.0;
        backup_joules = 0.0;
        restore_joules = 0.0;
      };
    backup_events = 0;
    restore_events = 0;
    replayed_stores = 0;
    buffer_peak = 0;
    region_size_hist = Array.make (size_cap + 1) 0;
    region_store_hist = Array.make (store_cap + 1) 0;
    cur_region_instrs = 0;
    cur_region_stores = 0;
  }

let note_region_end t =
  t.regions <- t.regions + 1;
  let size = min t.cur_region_instrs size_cap in
  let stores = min t.cur_region_stores store_cap in
  t.region_size_hist.(size) <- t.region_size_hist.(size) + 1;
  t.region_store_hist.(stores) <- t.region_store_hist.(stores) + 1;
  t.cur_region_instrs <- 0;
  t.cur_region_stores <- 0

let reset_region_counters t =
  t.cur_region_instrs <- 0;
  t.cur_region_stores <- 0

let parallelism_efficiency t =
  if t.f.persistence_ns <= 0.0 then 100.0
  else (t.f.persistence_ns -. t.f.wait_ns) /. t.f.persistence_ns *. 100.0

module Metrics = Sweep_obs.Metrics

(* Publish a run's counters into the global metrics registry.  Counters
   accumulate across runs (an unlabelled publish from every job yields
   whole-experiment totals); per-run quantities that do not sum land in
   histograms.  Labels split the series (e.g. per design/bench from
   sweepsim --metrics). *)
let publish ?(labels = []) t =
  let c name v = Metrics.add (Metrics.counter ~labels name) v in
  c "sim.instructions" t.instructions;
  c "sim.loads" t.loads;
  c "sim.stores" t.stores;
  c "sim.regions" t.regions;
  c "sim.buffer_searches" t.buffer_searches;
  c "sim.buffer_bypasses" t.buffer_bypasses;
  c "sim.buffer_hits" t.buffer_hits;
  c "sim.backup_events" t.backup_events;
  c "sim.restore_events" t.restore_events;
  c "sim.replayed_stores" t.replayed_stores;
  Metrics.set_max (Metrics.gauge ~labels "sim.buffer_peak")
    (float_of_int t.buffer_peak);
  Metrics.observe
    (Metrics.histogram ~labels "sim.parallelism_eff"
       ~buckets:[| 20.0; 40.0; 60.0; 70.0; 80.0; 90.0; 95.0; 99.0; 100.0 |])
    (parallelism_efficiency t)

let hist_cdf hist =
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then []
  else begin
    let acc = ref 0 in
    let points = ref [] in
    Array.iteri
      (fun value count ->
        if count > 0 then begin
          acc := !acc + count;
          points :=
            (value, float_of_int !acc /. float_of_int total *. 100.0) :: !points
        end)
      hist;
    List.rev !points
  end
