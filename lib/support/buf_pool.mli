(** Size-classed pool of float64 bigarray buffers.

    Backs the executor's run phase: a plan run takes one block per
    output instance here instead of allocating it fresh. The serving
    session draws seeded inputs and replayed outputs from a pool of its
    own. So a steady-state served replay performs no bigarray allocation
    at all.
    Capacities round up to powers of two (one free list per class). The
    free lists and counters sit behind the pool's own mutex, so any
    domain may acquire and release.

    Total parked bytes are capped at {!max_bytes}: a release that would
    exceed the cap drops the block to the GC. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Same backing type as [Distal_tensor.Dense.buf]; this library sits
    below the tensor layer, so the pool deals in raw blocks. *)

type t

type stats = {
  allocs : int;  (** fresh bigarray allocations since [create] *)
  alloc_bytes : float;  (** bytes of those allocations *)
  hits : int;  (** acquisitions served from a free list *)
  cached_bytes : float;  (** bytes currently parked in free lists *)
  dropped : int;  (** releases discarded: past the byte cap, or not a class's size *)
}

val max_bytes : int
(** The cap on parked bytes: 64 MiB. *)

val create : unit -> t
(** A fresh, empty pool. *)

val acquire : t -> int -> buf
(** [acquire t n] returns a block of capacity at least [n] elements
    (the smallest power-of-two class), from its class's free list when
    it has one, else freshly allocated. Contents are unspecified —
    callers overwrite or zero-fill.
    @raise Invalid_argument when [n] exceeds the largest class
    (2{^47} elements). *)

val release : t -> buf -> unit
(** Park a block on its class's free list, or drop it when parking it
    would take the parked bytes past {!max_bytes} (or when its capacity
    is not a class's). Only blocks that came from {!acquire} should be
    released; the block must not be used after release. *)

val stats : t -> stats
