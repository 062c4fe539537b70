(** Size-classed pool of float64 bigarray buffers with single-owner arenas.

    Backs the executor's run phase: output instances and reduction
    partials are acquired here instead of allocated fresh. The serving
    session draws seeded inputs and replayed outputs from a pool of its
    own. So a steady-state served replay performs no bigarray allocation
    at all.
    Capacities round up to powers of two (one free list per class); the
    executor gives each launch point an arena of its own, which only the
    domain running that point touches (lock-free acquire/release).

    Total parked bytes are capped at 64 MiB: a release that would
    exceed the cap drops the block to the GC. The cap check is advisory
    (not atomic with the update), so the ceiling is approximate by
    design. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Same backing type as [Distal_tensor.Dense.buf]; this library sits
    below the tensor layer, so the pool deals in raw blocks. *)

type t
type arena

type stats = {
  allocs : int;  (** fresh bigarray allocations since [create] *)
  alloc_bytes : float;  (** bytes of those allocations *)
  hits : int;  (** acquisitions served from an arena *)
  cached_bytes : float;  (** bytes currently parked in free lists *)
  dropped : int;  (** releases discarded because the byte cap was reached *)
}

val create : int -> t
(** A fresh, empty pool of [n] arenas.
    @raise Invalid_argument when [n < 1]. *)

val arena : t -> int -> arena
(** Arena [i] (0-based). Stable across calls and allocation-free, so
    domains may call it concurrently — but each arena must only ever be
    used by one domain at a time.
    @raise Invalid_argument on an index outside [0, n). *)

val acquire : t -> arena -> int -> buf
(** [acquire t a n] returns a block of capacity at least [n] elements
    (the smallest power-of-two class), from the arena's free list when
    it has one, else freshly allocated. Contents are unspecified —
    callers overwrite or zero-fill. *)

val release : t -> arena -> buf -> unit
(** Park a block on the arena's free list (or drop it when the pool is
    at its byte cap). Only blocks that came from {!acquire} should be
    released; the block must not be used after release. *)

val stats : t -> stats
