(** Assembled programs.

    The compiler emits a list of {!item}s with symbolic labels;
    {!assemble} resolves them into an executable instruction array.  The
    result also carries the memory {!Layout.t} and enough metadata for the
    instruction-count experiment (§6.5) and region statistics (Fig. 12). *)

type label = string

type item =
  | Label of label
  | Ins of label Instr.t

type data = {
  addrs : int array;   (** byte addresses *)
  values : int array;  (** the word for [addrs.(i)] is [values.(i)] *)
}
(** Initial NVM words as two parallel int arrays, in poke order (a later
    entry for the same address wins): 2 heap words per word of data,
    where an [(int * int) list] took 6 — and a compiled program stays
    resident in the compile memo. *)

val no_data : data

type meta = {
  functions : (string * label) list;
      (** Source-function name and its entry label, in layout order. *)
  initial_data : data;
      (** The words the loader writes into NVM before execution —
          workload input data. *)
}

type t = {
  code : int Instr.t array;
  entry : int;              (** Index of the first instruction of main. *)
  labels : (label * int) list;
  layout : Layout.t;
  meta : meta;
}
(** Read-only once assembled: one compiled program is shared by every
    machine, job and domain of a process (see
    [Sweep_sim.Harness.compile]), so nothing may write into [code]. *)

exception Undefined_label of string
exception Duplicate_label of string

val assemble :
  ?meta:meta -> layout:Layout.t -> entry:label -> item list -> t
(** Resolve labels to instruction indices.  Raises on unknown or duplicate
    labels. *)

val label_index : t -> label -> int
(** Raises [Not_found] for unknown labels. *)

val static_instruction_count : t -> int
(** Number of instructions excluding [Nop] padding — the §6.5 metric. *)

val static_store_count : t -> int

val region_end_count : t -> int

val dump : t -> string
(** Disassembly listing with label annotations, for [sweepcc]. *)
