(** Hyper-rectangles over integer coordinates.

    A rect is a half-open box: [lo] inclusive, [hi] exclusive, one entry per
    dimension. Rects are how the compiler describes tensor footprints (the
    data a communicate point must materialize) and how the runtime describes
    partitions, mirroring Legion's bounding-box partitioning API. *)

type t = private { lo : int array; hi : int array }

val make : lo:int array -> hi:int array -> t
(** Requires [lo] and [hi] of equal length and [lo.(d) <= hi.(d)] for all [d]
    (empty rects are allowed).
    @raise Invalid_argument otherwise. *)

val full : int array -> t
(** The rect covering a whole shape: [0, dims). *)

val dim : t -> int
val volume : t -> int
val is_empty : t -> bool
val contains : t -> int array -> bool
val subset : t -> t -> bool
(** [subset a b] holds when every point of [a] lies in [b]. An empty [a] is a
    subset of anything. [subset], [inter] and [hull] raise
    [Invalid_argument] on rects of different rank. *)

val inter : t -> t -> t
(** Intersection (possibly empty). *)

val hull : t -> t -> t
(** Smallest rect containing both. *)

val overlaps : t -> t -> bool
val equal : t -> t -> bool

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by rects, compared and hashed by their bounds
    without polymorphic hashing. *)

val to_ints : int array -> int -> t -> unit
(** [to_ints a o r] writes [r] as [2 * dim r] ints from [a.(o)]: per
    dimension its [lo], then its [hi]. Read in that order, the ints of
    two rects compare lexicographically in the canonical order of rect
    sets (interleaved lo, hi). *)

val of_ints : int array -> int -> int -> t
(** [of_ints a o dims]: the rect of rank [dims] {!to_ints} wrote at
    [a.(o)]. *)

val iter : t -> (int array -> unit) -> unit
(** Iterate the points of the rect in row-major order; the callback receives a
    fresh coordinate array each time. *)

val extents : t -> int array
(** Per-dimension side lengths. *)

val to_string : t -> string
(** E.g. ["[0,4)x[2,6)"]. *)
