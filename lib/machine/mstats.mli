(** Runtime counters shared by all machine designs.

    Region histograms feed the Fig. 12 CDFs; buffer-search counters feed
    the §4.4 empty-bit analysis; persistence/wait times feed the §6.3
    parallelism-efficiency metric. *)

type floats = {
  mutable persistence_ns : float;   (** ΣT_p: region persistence latency *)
  mutable wait_ns : float;          (** ΣT_wait: structural-hazard stalls *)
  mutable waw_stall_ns : float;     (** §4.3 write-after-write stalls *)
  mutable backup_joules : float;
  mutable restore_joules : float;
}
(** All-float (flat) so hot-path writes never box. *)

(** Concrete so {!Exec.step} bumps the per-instruction counters
    ([instructions], [loads], [stores] and the current region's
    [cur_region_instrs]/[cur_region_stores]) in place: in the default
    [-opaque] build a helper here would be a real call per
    instruction. *)
type t = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable regions : int;            (** Region_end executions *)
  mutable buffer_searches : int;    (** misses that searched a persist buffer *)
  mutable buffer_bypasses : int;    (** misses that skipped it via empty-bit *)
  mutable buffer_hits : int;        (** misses served from the buffer *)
  f : floats;                       (** time/energy accumulators *)
  mutable backup_events : int;
  mutable restore_events : int;
  mutable replayed_stores : int;    (** ReplayCache recovery work *)
  mutable buffer_peak : int;        (** max persist-buffer occupancy seen *)
  region_size_hist : int array;     (** index = instruction count, capped *)
  region_store_hist : int array;    (** index = store count, capped *)
  mutable cur_region_instrs : int;
  mutable cur_region_stores : int;
}

val create : unit -> t

val note_region_end : t -> unit
(** Records the current region's size/store count in the histograms and
    resets the running counters. *)

val reset_region_counters : t -> unit
(** On power failure: the interrupted region's partial counts are
    dropped (it will re-execute). *)

val parallelism_efficiency : t -> float
(** ((ΣT_p − ΣT_wait) / ΣT_p) × 100; 100.0 when no persistence happened. *)

val publish : ?labels:(string * string) list -> t -> unit
(** Add this run's counters into the {!Sweep_obs.Metrics} registry
    (prefix [sim.]); counters accumulate across runs, per-run ratios go
    to histograms.  [labels] split the series. *)

val hist_cdf : int array -> (int * float) list
(** Cumulative distribution points (value, percent ≤ value) of a
    histogram, skipping empty prefix/suffix. *)
