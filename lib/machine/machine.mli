(** Machine model (§3.1).

    DISTAL models a distributed machine as a multi-dimensional grid of
    abstract processors, each with a local memory, able to communicate with
    every other processor. Hierarchy (nodes containing several GPUs or
    sockets) is captured by [node_factors]: per dimension, how many
    adjacent grid coordinates share a node. Two processors are node-local
    exactly when every coordinate agrees after division by its factor, so
    e.g. a flat 32x32 grid of GPUs with [node_factors = \[|2;2|\]] has
    2x2 blocks of four GPUs per node — the Lassen arrangement. *)

type proc_kind = Cpu | Gpu

type t = private {
  dims : int array;  (** the abstract-processor grid *)
  node_factors : int array;  (** per-dim block size sharing a node *)
  kind : proc_kind;
  mem_per_proc : float;  (** bytes of local memory per abstract processor *)
}

val grid :
  ?node_factors:int array ->
  ?kind:proc_kind ->
  ?mem_per_proc:float ->
  int array ->
  t
(** A machine organized as the given grid. Defaults: every processor its
    own node, CPU processors, 256 GB per processor. Factors must divide
    their dimensions.
    @raise Invalid_argument on an empty or non-positive grid, or on node
    factors of the wrong rank or that do not divide their dimension. *)

val hierarchical :
  node_dims:int array ->
  proc_dims:int array ->
  kind:proc_kind ->
  mem_per_proc:float ->
  t
(** Nodes arranged in [node_dims], each node a [proc_dims] grid of
    processors; the flat grid is their concatenation (§3.2 "Hierarchy"). *)

val with_ppn :
  ?kind:proc_kind -> ?mem_per_proc:float -> int array -> ppn:int -> t
(** Best-effort grouping of [ppn] processors per node as a block of
    trailing dimensions (e.g. a GPU cube [|4;4;4|] with [ppn:4] gets
    [node_factors = \[|1;1;4|\]]). Falls back to one processor per node
    when no block decomposition divides the grid. *)

val num_procs : t -> int
val dims : t -> int array
val num_nodes : t -> int
val dim : t -> int

val proc_coords : t -> int array list
(** All processor coordinates in row-major order. *)

val linearize : t -> int array -> int
val delinearize : t -> int -> int array

val node_of : t -> int array -> int
val same_node : t -> int array -> int array -> bool
val mem_per_proc_bytes : t -> float
val kind : t -> proc_kind
val to_string : t -> string
