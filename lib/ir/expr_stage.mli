(** Staged leaf evaluation: compile a statement's leaf loop nest once,
    run it as flat loops over precomputed linear strides.

    Evaluating a leaf point by point ([Ints.iter_box] + {!Expr.eval})
    would re-derive every access coordinate through
    {!Provenance.raw_point_fn} and re-check {!Provenance.guards_fn} for
    each iteration-space point. For a fixed statement and leaf-variable
    nest those are affine functions of the leaf variables, so a plan
    precomputes per-access linear strides and turns boundary guards into
    loop-bound clamps. A fused leaf variable is staged as the nest of its
    parts, which visits the same points in the same order; a rotated one,
    shifted by enclosing variables, as two affine segments of its level.
    The staged nest executes exactly the points {!Expr.eval} over the leaf
    box would, in the same order, with the same float-operation tree —
    results are bit-identical.

    When the statement matches a registry kernel pattern with the nest
    mapping one-to-one onto the kernel's iteration space, a plan also
    records a registry dispatch, and {!bind} hands guard-free leaves to
    the registry's tiled kernels instead of running the nest. The
    tiled kernels preserve the nest's per-output-element accumulation
    order, so tiled dispatch is bit-identical to the staged nest (see
    DESIGN.md "Leaf kernel registry").

    Plans and bound leaves are immutable, so one plan or bound nest may
    be used from several domains concurrently. *)

type plan

val plan :
  Provenance.t -> stmt:Expr.stmt -> leaf_vars:Ident.t list -> (plan, string) result
(** Stage [stmt] for a leaf nest over [leaf_vars] (outermost first, the
    [Taskir.Scalar_loops] order). An error names the variable that is
    not affine in the leaf variables, even in segments: a fuse the leaf
    loops split again, or a rotation shifted by a leaf loop or whose
    result the leaf loops split. *)

val slots : plan -> Expr.access array
(** The buffer slots a run expects: the statement's right-hand-side
    accesses left-to-right, then the left-hand side last. *)

type geom = { src : int; rect : Distal_tensor.Rect.t; base : int; strides : int array }
(** Where a slot's instance lives: in the caller's buffer [src], element
    [x] (global coordinates) of the instance [rect] is at
    [base + Σ (x.(d) - rect.lo.(d)) * strides.(d)]. A block of the
    instance's own shape has [base = 0] and row-major strides; an
    instance read in place from its full tensor has the tensor's strides
    and the offset of [rect.lo] as [base]. *)

type operand = { src : int; off : int; st : int array }
(** A registry kernel operand: the buffer it reads, the offset of its
    first element and one stride per letter of its access pattern
    ({!Distal_tensor.Kernel_registry.view} with the buffer named). *)

type nest
(** A leaf bound to its loop nest: per-slot offsets, strides and guard
    clamps. Immutable: each {!run_nest} call keeps its own loop state. *)

type bound =
  | Kernel of { kernel : string; dims : int array; operands : operand array }
      (** run {!Distal_tensor.Kernel_registry.run_views} over [operands]
          (output first, then factors in kernel order) *)
  | Nest of nest  (** run {!run_nest} *)
  | Empty  (** a leaf-constant guard excludes every point *)

val bind : plan -> env:(Ident.t -> int option) -> geoms:geom array -> bound
(** Bind one leaf: [geoms.(i)] locates the instance backing {!slots}[(i)];
    [env] binds the launch and sequential variables (leaf variables must
    be unbound). Leaves that qualify bind to a registry [Kernel].
    @raise Invalid_argument when [env] leaves a variable the leaf reads
    unbound, or an instance does not cover the leaf's first point. *)

val run_nest : nest -> Distal_tensor.Dense.buf array -> unit
(** Run a bound nest, reading each slot's buffer at its [src] in the
    array, accumulating into the last slot ([Dense.add_at] per point, as a
    point-by-point evaluation would). *)
