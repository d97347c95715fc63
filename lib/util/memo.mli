(** Process-wide, domain-safe, bounded find-or-add tables.

    One implementation serves every memo of the process (base power
    traces, compiled programs).  The lock guards only the table: a miss
    computes its value outside it, so a slow computation on one domain
    never blocks lookups on another.  Two domains that miss on the same
    key at once may both compute; the first to finish publishes its
    value and the other returns that one, so every caller of a key sees
    the physically same value while it stays resident.  Values are
    therefore shared across domains and must never be mutated. *)

type ('k, 'v) t

val create : cap:int -> unit -> ('k, 'v) t
(** An empty memo holding at most [cap] entries (structural keys);
    inserting into a full memo evicts the oldest entry first.  Raises
    [Invalid_argument] if [cap < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [find_or_add t k make] is [(v, true)] if [k] is resident, else
    [(v, false)] with [v] from [make ()] (or from a concurrent miss that
    published first).  An exception from [make] propagates and stores
    nothing. *)

val length : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
