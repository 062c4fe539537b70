(** The leaf kernel registry: native-speed microkernels behind [substitute].

    Each substituted leaf is dispatched to the fastest applicable
    implementation keyed by (kernel name, dtype, shape class). dtype is
    always float64 (the substrate of {!Dense}); the shape class picks
    between cache-blocked, register-tiled microkernels and simple flat
    loops.

    {b Accumulation order.} The kernels replay the evaluator's
    per-output-element operation sequence exactly: the accumulator is
    initialized from the current output element, one multiply-add is
    applied per reduction point in ascending canonical order, and the
    value is stored back. Register tiles and K-blocking only interleave
    chains of {e different} output elements, so a tiled run of a staged
    leaf is bit-identical to the scalar evaluator. See DESIGN.md "Leaf
    kernel registry". *)

type mode = Off | Tiled
(** The implementation {!run_named} runs. [Off] — the {!Kernels}
    reference loops, which the benchmark times the registry against.
    [Tiled] — the blocked microkernels, which the executor runs every
    leaf with. *)

(** {2 The kernel table} *)

type entry = {
  name : string;
  lhs : string;  (** access letters of the output *)
  factors : string list;  (** access letters of each rhs factor *)
  flops_per_point : float;
}

val entries : entry list
(** One entry per substitutable kernel — the single source of truth the
    statement matcher ([Kernel_match]) unifies against. Canonical letter
    order (the order of every [dims] array below) is first appearance
    scanning [lhs] then [factors]. *)

val kernel_names : string list

val canonical_letters : entry -> string
(** The canonical letter sequence of an entry: first appearance scanning
    [lhs] then [factors]. Its length is the rank of the [dims] arrays. *)

val flops : kernel:string -> dims:int array -> float
(** Declared flop count over the canonical iteration space [dims].
    @raise Invalid_argument on unknown kernels or wrong rank. *)

(** {2 Dispatch} *)

type view = { buf : Dense.buf; off : int; st : int array }
(** A strided window into a dense buffer: element [(i0,...,id)] of the
    operand lives at [off + Σ i_n * st.(n)], with one stride per letter
    of the operand's access pattern. *)

val shape_class : kernel:string -> dims:int array -> [ `Micro | `Simple ]
(** The implementation {!run_views} selects — a performance choice only;
    both share the same accumulation order. *)

val run_views : kernel:string -> dims:int array -> view array -> unit
(** Run a kernel over strided views, output view first then factors in
    entry order, [dims] in canonical letter order. All kernels accumulate
    into the output ([+=] semantics).
    @raise Invalid_argument on unknown kernels or wrong arity. *)

val run_named : mode -> kernel:string -> Dense.t list -> unit
(** The substitute path: whole contiguous operands, output first. Under
    [Off] this runs the {!Kernels} reference implementation; under
    [Tiled], the blocked microkernels.
    @raise Invalid_argument on shape mismatch, naming the kernel and
    every operand shape. *)
