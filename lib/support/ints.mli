(** Helpers over [int array] used for shapes, strides and grid coordinates. *)

val prod : int array -> int
(** Product of all entries; 1 for the empty array. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the smallest [q] with [q * b >= a]. @raise Invalid_argument unless [b > 0]. *)

val row_major_strides : int array -> int array
(** Row-major strides of a shape: the last dimension has stride 1. *)

val linearize : dims:int array -> int array -> int
(** Row-major linear index of a coordinate within [dims].
    @raise Invalid_argument unless the coordinate is inside the box
    [0, dims). *)

val delinearize : dims:int array -> int -> int array
(** Inverse of {!linearize}.
    @raise Invalid_argument when the index is outside the box. *)

val iter_box : int array -> (int array -> unit) -> unit
(** Iterate all coordinates of the box [0, dims) in row-major order.
    The callback receives a fresh array each time. *)

val fold_box : int array -> init:'a -> f:('a -> int array -> 'a) -> 'a
(** Row-major fold over the box [0, dims). *)

val equal : int array -> int array -> bool

val to_string : int array -> string
(** E.g. [to_string [|2;3|] = "[2,3]"]. *)

val take : int -> 'a array -> 'a array
val drop : int -> 'a array -> 'a array

val mix : int -> int -> int
(** [mix h x] folds [x] into the running hash [h], spreading regular
    inputs (multiples of a tile size, say) over all bits, so hash tables
    keyed by coordinates do not pile into a few buckets. *)
