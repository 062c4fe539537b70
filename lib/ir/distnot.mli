(** Tensor distribution notation (§3.2, Fig. 4–5).

    A statement [T[x,y] -> M[x,0,*]] maps tensor dimensions onto machine
    dimensions: tensor dimensions whose name reappears on the machine side
    are partitioned (blocked) across that machine dimension; remaining
    machine dimensions either fix the partition to a coordinate ([0]) or
    broadcast it ([*]).

    Distributions are hierarchical (§3.2 "Hierarchy"): a list of levels,
    each consuming a consecutive group of machine dimensions, where level
    [k+1] subdivides the tiles produced by level [k]. A single level is the
    common case. The textual form separates levels with [;]:
    ["T[x,y] -> M[x,y]; T[z,w] -> M[z]"]. *)

type axis =
  | Part of Ident.t  (** blocked partition (the paper's default) *)
  | Cyclic of Ident.t * int
      (** block-cyclic partition with the given block size — the
          alternative partitioning function §3.2 mentions (and the layout
          ScaLAPACK uses). Textual form: [x%2]. *)
  | Fix of int
  | Bcast

type level = { tensor_axes : Ident.t list; machine_axes : axis list }

type t = level list

val parse : string -> (t, string) result
(** Accepts ["[x,y] -> [x,y,*]"] with optional tensor/machine names before
    the brackets. *)

val parse_exn : string -> t
val to_string : t -> string

val validate : t -> tensor_rank:int -> machine:Distal_machine.Machine.t -> (unit, string) result
(** The validity conditions of §3.2: per level, |X| equals the tensor rank,
    names are duplicate-free, every machine-side name appears on the tensor
    side, fixed coordinates are in range; level machine-axis counts sum to
    the machine's dimensionality. *)

(** {2 Formal semantics (single level)}

    [color_of_point] is the paper's partitioning function P (lifted over
    non-partitioned dimensions); [procs_of_color] is F, expanding a color to
    full processor coordinates. Colors are points in the partitioned
    machine dimensions, listed in machine-dimension order. *)

val color_of_point : level -> shape:int array -> mdims:int array -> int array -> int array
val procs_of_color : level -> mdims:int array -> int array -> int array list

(** {2 Tile queries}

    A distribution's tiles are the non-empty boxes it gives processors:
    distinct tiles are pairwise disjoint and jointly cover the tensor,
    and a replicated (broadcast) tile has several owners. Tile queries
    are answered in closed form from each level's per-dimension segments
    (blocked or block-cyclic), so a query costs in proportion to the
    pieces it returns, not to the tiles the tensor has; the pieces of
    the whole tensor are its tiles. Processors are linear (row-major)
    machine indices. *)

type 'a layout

val layout :
  t -> shape:int array -> machine:Distal_machine.Machine.t -> owners:(int list -> 'a) ->
  'a layout
(** The layout of a distribution that passes {!validate}. The
    processors that share a set of tiles (they differ only on broadcast
    axes) are passed to [owners] once, ascending; {!pieces} returns
    what it makes of them. Queries write into the layout's scratch, so
    one layout must not be queried from several domains at once. *)

val pieces : 'a layout -> Distal_tensor.Rect.t -> (Distal_tensor.Rect.t * 'a) list
(** [pieces l rect]: every tile that meets [rect], as its non-empty
    intersection with [rect] and its owners, in a fixed order: by
    lowest owner, then in each owner's sweep order (dimension 0 varying
    fastest). *)

val holders : 'a layout -> Distal_tensor.Rect.t -> 'a option
(** [holders l rect]: the owners of the tile that contains [rect], if
    one does ([None] for an empty [rect]). *)

val owned_volume : 'a layout -> int -> int
(** The elements of processor [p]'s tiles. *)

val lower_to_cin :
  level ->
  tensor:string ->
  shape:int array ->
  machine:Distal_machine.Machine.t ->
  (Cin.t, string) result
(** §5.3: translate a (single-level) distribution statement into the
    concrete index notation data-placement statement that reads the tensor
    in the described orientation — nested foralls over the tensor and the
    broadcast machine dimensions, divided, distributed and communicated. *)
