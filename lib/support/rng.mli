(** Deterministic splitmix64 random number generator.

    Benchmarks and tests need reproducible tensor data independent of the
    OCaml stdlib [Random] state, so we carry our own tiny generator. *)

type t

val create : int -> t
(** Seeded generator. Equal seeds produce equal streams. *)

val next_int64 : t -> int64
val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val fill_chunk : int
(** Elements per chunk of a pooled {!fill_float}: 32768. *)

val fill_float :
  ?pool:Pool.t ->
  t ->
  float ->
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  unit
(** [fill_float t bound a] stores the next [dim a] draws of [float t bound]
    into [a], in index order, and advances [t] past them: bit-identical to
    a loop of {!float} calls, without allocating. With [pool], an array
    longer than {!fill_chunk} fills in chunks of that many elements
    through {!Pool.parallel_for}, each chunk starting from the state its
    first draw would have in the serial loop, so the contents are the
    same. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)].
    @raise Invalid_argument when [bound <= 0]. *)

val split : t -> t
(** Derive an independent generator; advances [t]. *)
