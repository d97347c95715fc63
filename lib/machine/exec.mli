(** Shared in-order instruction executor over the decoded opstream.

    Each design supplies its memory path as a {!mem_ops} record; the
    executor handles the ISA semantics, PC updates and base (1-cycle)
    timing, which are identical across designs.  Instruction fetch is a
    constant 1 cycle everywhere: the paper keeps the L1I as an NVM cache
    in every configuration, so fetch cost is common mode.

    Costing convention: the machine owns an {!Acc.t}; {!step} zeroes it,
    memory ops add their extra cost into its [ns]/[joules] fields in
    place ([a.ns <- a.ns +. x], with any composite [x] computed so float
    grouping matches the legacy [Cost.t] chains bit-for-bit), and [step]
    finalizes base + stall power in
    place.  The accumulator also carries the simulation clock and the
    finalization constants, so no float value crosses a function
    boundary on the hot path: callers write [Acc.now] before stepping
    and read [Acc.ns]/[Acc.joules] after, and a steady-state step
    performs zero minor-heap allocation when sinks are off. *)

(** Flat (all-float, hence unboxed-field) per-step cost accumulator. *)
module Acc : sig
  type t = {
    mutable ns : float;      (** this step's total time, set by [step] *)
    mutable joules : float;  (** this step's total energy *)
    mutable now : float;
        (** Simulation time at the start of the step; the caller writes
            it before [step], memory ops read it. *)
    mutable cycle_ns : float;
        (** Finalization constants from the energy model, installed once
            at machine creation via {!set_rates}. *)
    mutable e_cycle : float;
    mutable e_stall_cycle : float;
  }

  val create : unit -> t

  val set_rates : t -> Sweep_energy.Energy_config.t -> unit
  (** Install the per-cycle base cost constants. *)
end

type mem_ops = {
  load : int -> int;
      (** [load addr] returns the value; charges into the acc. *)
  store : int -> int -> unit;  (** [store addr value] *)
  clwb : int -> unit;  (** [clwb addr] — ReplayCache line write-back. *)
  fence : unit -> unit;
  region_end : unit -> unit;
}

val nop_region_ops : mem_ops -> mem_ops
(** Same memory path with free [clwb]/[fence]/[region_end] — for designs
    that run Plain-mode programs (the markers never appear, but totality
    is nice for tests that run instrumented code on them). *)

val null_ops : mem_ops
(** Ops that charge nothing and load 0 — the placeholder machines use
    while tying the knot between the machine record and the closures
    over it. *)

val step :
  Cpu.t -> Sweep_isa.Decoded.t -> Mstats.t -> mem_ops -> Acc.t -> unit
(** Execute the instruction at [cpu.pc] from the decoded opstream.
    Updates CPU state and counters; leaves the step's total time/energy
    in the accumulator.  A halted machine costs exactly zero. *)

val step_reference :
  Cpu.t -> Sweep_isa.Program.t -> Mstats.t -> mem_ops -> Acc.t -> unit
(** The legacy variant-matching interpreter over the undecoded program,
    kept as the semantic reference for the differential equivalence
    suite.  Identical calling convention and costing. *)
