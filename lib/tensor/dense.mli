(** Dense row-major tensors of 64-bit floats.

    This is the data substrate under both the "global" view of a logical
    region and the per-processor local buffers the runtime materializes at
    communicate points. A rank-0 tensor (empty [dims]) is a scalar. *)

type t

val create : int array -> t
(** Zero-filled tensor of the given shape. *)

val init : int array -> (int array -> float) -> t
val dims : t -> int
val shape : t -> int array
val size : t -> int
(** Number of elements. *)

val bytes : t -> int
(** Size in bytes (8 per element). *)

val get : t -> int array -> float
(** @raise Invalid_argument when the coordinate's rank differs from the
    tensor's or a coordinate lies outside its extent (see {!offset}). *)

val set : t -> int array -> float -> unit
val add_at : t -> int array -> float -> unit
val fill : t -> float -> unit

val get_lin : t -> int -> float
(** Access by row-major linear offset (used by leaf kernels). *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The backing storage: a flat C-layout bigarray of unboxed float64. *)

val unsafe_data : t -> buf
(** The backing row-major element block, unguarded. For staged leaf
    evaluators and registry kernels that precompute linear offsets;
    everything else should go through the checked accessors. *)

val set_lin : t -> int -> float -> unit
val add_lin : t -> int -> float -> unit

val unsafe_get : t -> int -> float
(** Unchecked linear read ([Bigarray.Array1.unsafe_get]). Kernel hot
    loops only: the caller owns the bounds proof. *)

val unsafe_set : t -> int -> float -> unit

val offset : t -> int array -> int
(** Row-major linear offset of a coordinate: the checked path behind
    {!get}, {!set} and {!add_at}. @raise Invalid_argument on a rank
    mismatch or an out-of-range coordinate. *)

val copy : t -> t

val random :
  ?alloc:(int -> buf) -> ?pool:Distal_support.Pool.t -> Distal_support.Rng.t -> int array -> t
(** Uniform entries in [\[0, 1)], drawn in row-major order into the first
    elements of [alloc n] (default: a fresh block of [n] elements). With
    [pool], a large tensor fills in chunks on the pool's domains, with
    the same contents ({!Distal_support.Rng.fill_float}). *)

val to_le_bytes : t -> Bytes.t
(** The elements' IEEE-754 bit patterns, 8 little-endian bytes each, in
    row-major order: an exact image of the contents (NaN payloads and
    signed zeros included). *)

val of_buf : buf -> int array -> t
(** [of_buf b shape] views the first [prod shape] elements of [b] as a
    tensor of that shape, sharing storage — no copy. The bridge from
    {!Distal_support.Buf_pool} blocks (whose power-of-two capacities may
    exceed the shape) to tensor views; contents are whatever the block
    holds. @raise Invalid_argument when [b] is too small. *)

val accumulate_into : src:t -> dst:t -> Rect.t -> unit
(** [accumulate_into ~src ~dst r] adds [src] (shaped [Rect.extents r]) into
    the sub-box [r] of [dst] (reduction write-back). @raise
    Invalid_argument on a rect outside [dst] or a source shape
    mismatch. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a

val approx_equal : ?tol:float -> t -> t -> bool
(** Shape equality plus componentwise closeness: |a-b| <= tol * (1 + |a| + |b|). *)

val max_abs_diff : t -> t -> float
(** @raise Invalid_argument when the shapes differ. *)
