(** Synthetic ambient-power traces.

    The paper evaluates with two real RF traces (RFHome, RFOffice) plus
    solar and thermal sources.  Real traces are unavailable, so we
    generate seeded synthetic ones whose *statistics* match the roles the
    paper gives them: RF sources are bursty on/off processes; solar varies
    slowly; thermal is nearly constant.  All four share a similar mean
    power so that differences in results come from stability, not budget
    (see DESIGN.md, substitutions). *)

type kind = Rf_home | Rf_office | Solar | Thermal

val kind_name : kind -> string
val all_kinds : kind list

type t
(** An immutable view over a base sample grid.  Sample [i] is computed
    on read as [base.((i - shift) mod n) *. factor], or [0.0] where the
    seeded dropout mask fires — the shift → scale → drop pipeline of the
    transforms below.  A trace from {!make} or {!load_csv} is the same
    view with identity fields, and jittering one is O(1): the base grid
    is shared, never copied. *)

val make : ?seed:int -> kind -> t
(** Deterministic for a given seed (default 42).  Traces cover ~60 s at
    100 µs resolution and wrap around beyond that. *)

val kind : t -> kind

val power : t -> float -> float
(** [power t time_s] in watts: {!sample} at index [time_s / sample_dt],
    wrapped into [\[0, length t)]. *)

val length : t -> int
(** Number of samples on the grid (600k for a {!make} trace). *)

val sample : t -> int -> float
(** [sample t i] is sample [i] of the view, [0 <= i < length t]: the
    reference read, O(1) and bit-exact with transforming a flat copy.
    Its float result is boxed when the call is not inlined (dune's
    default dev profile compiles with [-opaque]); a per-instruction
    loop reads through {!source_index} instead. *)

val source_index : t -> int -> int
(** [source_index t i] is the index into {!base} that sample [i] reads,
    or [-1] when dropout zeroes it — so
    [sample t i = if k < 0 then 0.0 else (base t).(k) *. factor t].
    Returns an immediate, so a hot loop can hoist {!base} and {!factor}
    and refresh a cached sample without allocating. *)

val base : t -> float array
(** The shared base grid the view reads (watts).  Never mutate it: the
    experiment layer memoises base traces across jobs and domains. *)

val factor : t -> float
(** The amplitude factor applied on read ([1.0] unless {!scale}d). *)

val samples : t -> float array
(** The trace as a flat array: the base grid itself for an untransformed
    trace, otherwise a fresh materialised copy (O(length)).  Off every
    simulation path. *)

val materialise : t -> t
(** [materialise t] has the same samples and tag as [t], stored flat:
    identity view fields over the {!samples} grid (a fresh copy unless
    [t] is untransformed). *)

val sample_dt : t -> float
(** Grid spacing in seconds (100 µs). *)

val tag : t -> string option
(** Transform provenance: [None] for a trace straight out of {!make} or
    {!load_csv}; set by a caller (see {!with_tag}) after applying
    transforms, and folded into the canonical power key by the
    experiment layer so two differently-jittered copies of the same
    base trace can never alias. *)

val with_tag : t -> string -> t
(** Label a (typically transformed) trace.  The tag becomes part of job
    keys downstream, so it must not contain ['|'], ['/'] or spaces. *)

(** {2 Validated transforms}

    Per-device jitter for fleet simulation.  Each returns a new trace on
    the same 100 µs grid (inputs are never mutated) and raises [Failure]
    rather than producing a trace whose implied timestamps would be
    negative or non-monotonic.  Applied in the canonical order —
    {!time_shift}, then {!scale}, then {!drop_samples}, each at most
    once — a transform is O(1).  Applied out of that order or a second
    time, it first {!materialise}s its input (O(length)), so the result
    is always exactly that of transforming a flat copy. *)

val time_shift : t -> float -> t
(** [time_shift t s] rotates the trace right by [s] seconds (the result
    at time x reads [t] at x - s, wrapping at the 60 s boundary).
    Raises [Failure] when [s] is negative or not finite — a left shift
    would need negative timestamps before the wrap. *)

val scale : t -> float -> t
(** [scale t f] multiplies every amplitude by [f].  Raises [Failure]
    when [f] is negative or not finite (negative harvested power has no
    physical meaning). *)

val drop_samples : t -> seed:int -> frac:float -> t
(** [drop_samples t ~seed ~frac] zeroes each 100 µs sample
    independently with probability [frac] (deterministic per [seed]) —
    momentary harvester blackouts: sample [i] is zeroed when
    [Rng.nth_float ~seed i < frac], the [i]-th draw of
    [Rng.create seed].  Samples are zeroed, never removed, so the time
    grid is untouched.  Raises [Failure] when [frac] is
    outside [0, 1] or not finite. *)

val mean_power : t -> float
(** Mean of all samples; materialises a transformed trace. *)

val duty_cycle : t -> float
(** Fraction of samples with non-negligible power — a burstiness
    indicator (RF ≈ 0.4–0.5, solar/thermal ≈ 1.0). *)

val save_csv : t -> string -> unit
(** Write the trace as "time_s,power_w" rows — for plotting, or for
    feeding a measured trace back in through {!load_csv}. *)

val load_csv : ?kind:kind -> string -> t
(** Read a "time_s,power_w" CSV (header line optional).  Samples are
    resampled onto the trace's native 100 µs grid by zero-order hold;
    [kind] labels the result (default [Rf_office]).  Raises [Failure] on
    a malformed file, an empty trace, or a negative / non-monotonic
    timestamp column (which would silently corrupt the resampling and
    every outage count derived from it). *)
