(** Static data layout: globals, per-function frames, spill slots.

    The language forbids recursion, so every function gets a *static*
    frame in NVM: parameter slots (the calling convention passes arguments
    through memory), a result slot, a link-register save slot, and spill
    slots added by the register allocator.  Globals come first, arrays
    aligned to cacheline boundaries. *)

type t

val create : unit -> t

val add_globals : t -> Sweep_lang.Ast.global list -> unit
(** Allocate every global; records initial data for the loader. *)

val global_addr : t -> string -> int
(** Byte address of a scalar global or the base of an array. *)

val array_length : t -> string -> int
(** Declared length (words) of a global array. *)

val declare_func : t -> string -> arity:int -> unit
(** Allocate the function's frame (params, result, link). *)

val param_slot : t -> string -> int -> int
val result_slot : t -> string -> int
val link_slot : t -> string -> int

val alloc_spill : t -> string -> int
(** A fresh spill slot in the named function's frame. *)

val data_limit : t -> int
(** One past the last allocated byte (for {!Sweep_isa.Layout.make}). *)

val initial_data : t -> Sweep_isa.Program.data
(** Loader image: the byte address and word of every non-zero
    initialiser, in poke order. *)

val globals_extent : t -> int * int
(** [lo, hi) byte bounds of the pure-globals area (excluding frames) —
    the region compared against the reference interpreter. *)

val global_names : t -> (string * int * int) list
(** [(name, base, words)] for every global, in declaration order; scalars
    have [words = 1]. *)
