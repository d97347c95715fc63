(** Deterministic pseudo-random number generation.

    All stochastic components of the simulator (power traces, workload
    inputs, property tests) draw from an explicit [Rng.t] so that every
    experiment is reproducible from a seed.  The generator is SplitMix64,
    which is small, fast and has well-understood statistical quality. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the state so two streams can diverge. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val nth_float : seed:int -> int -> float
(** [nth_float ~seed i] is the [i]-th (0-based) draw of
    [float (create seed) 1.0], bit for bit, computed directly from the
    SplitMix64 counter with no generator state — random access into the
    stream, e.g. a per-sample dropout mask read in any order. *)

val nth_below : seed:int -> int -> float -> bool
(** [nth_below ~seed i p] is [nth_float ~seed i < p] without returning
    a float: across an [-opaque] module boundary (dune's default dev
    profile) a float result is boxed, a [bool] never is. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
