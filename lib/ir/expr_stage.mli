(** Staged leaf evaluation: compile a statement's leaf loop nest once,
    run it as flat loops over precomputed linear strides.

    The generic leaf path ([Ints.iter_box] + {!Expr.eval}) re-derives
    every access coordinate through {!Provenance.raw_point} and re-checks
    {!Provenance.guards_ok} for each iteration-space point. For a fixed
    statement and leaf-variable nest those are affine functions of the
    leaf variables, so a plan precomputes per-access linear strides and
    turns boundary guards into loop-bound clamps. The staged nest
    executes exactly the points the generic path executes, in the same
    order, with the same float-operation tree — results are bit-identical
    — and falls back to the generic oracle whenever a shape it cannot
    stage appears (fuses or rotations of leaf-dependent variables).

    When the statement matches a registry kernel pattern with the nest
    mapping one-to-one onto the kernel's iteration space, a plan also
    records a registry dispatch, and {!run} hands guard-free leaves to the
    registry's tiled kernels instead of running the nest. The
    tiled kernels preserve the nest's per-output-element accumulation
    order, so tiled dispatch is bit-identical to the staged nest (see
    DESIGN.md "Leaf kernel registry").

    Plans are immutable and runs use only per-call scratch, so one plan
    may be used from several domains concurrently. *)

type plan

val plan : Provenance.t -> stmt:Expr.stmt -> leaf_vars:Ident.t list -> plan option
(** Stage [stmt] for a leaf nest over [leaf_vars] (outermost first, the
    [Taskir.Scalar_loops] order). [None] when some access index or guard
    variable is not an affine function of the leaf variables — the caller
    must keep using the generic path. *)

val slots : plan -> Expr.access array
(** The buffer slots a run expects: the statement's right-hand-side
    accesses left-to-right, then the left-hand side last. *)

val run :
  plan ->
  env:(Ident.t -> int option) ->
  insts:(Distal_tensor.Rect.t * Distal_tensor.Dense.t) array ->
  bool
(** Execute one leaf: [insts.(i)] is the (footprint rect, local buffer)
    instance backing {!slots}[(i)]; [env] binds the launch and sequential
    variables (leaf variables must be unbound). Accumulates into the last
    slot like the generic path ([Dense.add_at] per point); leaves that
    qualify run on the registry's kernels. Returns [false] without touching any buffer when the concrete binding
    cannot be staged (the caller runs the oracle); [true] otherwise —
    including when a leaf-constant guard excludes every point. *)
