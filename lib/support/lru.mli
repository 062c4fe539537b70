(** A mutex-protected LRU cache with hit/miss/eviction counters.

    The substrate of the serving layer's plan and result caches
    (lib/serve). All operations are serialized internally, so a cache may
    be shared by the domains of {!Pool} without external locking. A
    capacity of [0] is a valid always-miss cache (caching disabled). A
    weighted cache ({!create_weighted}) also caps the total weight of
    its values. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument when [capacity < 0]. *)

val create_weighted :
  capacity:int -> max_weight:int -> weight:('v -> int) -> ('k, 'v) t
(** A cache of at most [capacity] entries whose values weigh at most
    [max_weight] in total, each value weighing [weight v] (negative
    weights count as 0). Inserts evict least-recently-used entries until
    both bounds hold — the new entry too, when it alone outweighs
    [max_weight]. [create ~capacity] is the unweighted case.
    @raise Invalid_argument when [capacity < 0]. *)

val capacity : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit promotes the entry to most-recently-used. Counts
    towards {!hits} / {!misses}. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without promotion or counter updates. *)

val put : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) list
(** Insert or overwrite (either way the entry becomes MRU); returns the
    bindings evicted to get back under the capacity and the weight cap,
    least recently used first. A capacity-0 cache drops the value and
    returns [[]]. *)

val find_or_add :
  ('k, 'v) t ->
  'k ->
  (unit -> ('v, 'e) result) ->
  ('v * [ `Hit | `Miss of ('k * 'v) list ], 'e) result
(** Atomic lookup-or-compute: on a miss, [compute] runs under the cache
    mutex (single-flight — concurrent misses on one key compute once) and
    the result is inserted; [`Miss evicted] carries the bindings the
    insert displaced (as {!put}). [compute] must be quick and must not touch this
    cache. A computation returning [Error] caches nothing. *)

val remove : ('k, 'v) t -> 'k -> bool

val clear : ('k, 'v) t -> unit

val length : ('k, 'v) t -> int

val weight : ('k, 'v) t -> int
(** Total weight of the cached values (0 for an unweighted cache). *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int

val keys_mru : ('k, 'v) t -> 'k list
(** Keys most-recently-used first (the eviction order reversed). *)
