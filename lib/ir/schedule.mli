(** The scheduling language (§2, §3.3, §5.2).

    Commands are rewrites on concrete index notation. They can only change
    how the iteration space maps onto the machine — never the computed
    values; the property tests in [test/test_semantics.ml] enforce this.

    [Distribute_onto] is the compound distribute of §3.3 (divide each
    target by the matching machine-grid dimension, reorder the outer
    variables to the front, distribute them). *)

type t =
  | Divide of Ident.t * Ident.t * Ident.t * int
      (** [Divide (i, io, ii, parts)]: break loop [i] into [parts] outer
          iterations of contiguous inner chunks. *)
  | Split of Ident.t * Ident.t * Ident.t * int
      (** [Split (i, io, ii, chunk)]: like divide, but fixes the inner
          chunk size instead of the outer count. *)
  | Collapse of Ident.t * Ident.t * Ident.t
      (** [Collapse (i, j, f)]: fuse adjacent loops [i] (outer) and [j]
          into a single loop [f]. *)
  | Reorder of Ident.t list
      (** Rearrange the listed loops into the given order, in the position
          slots they currently occupy; other loops keep their places. *)
  | Distribute of Ident.t list
  | Distribute_onto of {
      targets : Ident.t list;
      dist : Ident.t list;
      local : Ident.t list;
      grid : int array;
    }
  | Communicate of string list * Ident.t
      (** Aggregate the named tensors' communication at each iteration of
          the given loop. *)
  | Rotate of { target : Ident.t; by : Ident.t list; result : Ident.t }
      (** Systolic symmetry breaking: iterate [result], with
          [target = (result + sum by) mod extent target]. The [by] loops
          must enclose [target]. *)
  | Parallelize of Ident.t
  | Substitute of Ident.t list * string
      (** Bind the innermost loops to a named local kernel (Fig. 2's
          [.substitute({ii, ji, ki}, CuBLAS::GeMM)]): one of gemm, gemv,
          ttv, ttm, mttkrp, innerprod. *)

val apply : Cin.t -> t -> (Cin.t, string) result
val apply_all : Cin.t -> t list -> (Cin.t, string) result

val to_string : t -> string

val parse : string -> (t list, string) result
(** Parse a schedule script: commands separated by [;] or newlines, e.g.
    {v
      distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]);
      split(k, ko, ki, 256);
      reorder(ko, ii, ji, ki);
      communicate(A, jo); communicate({B, C}, ko);
      substitute({ii, ji, ki}, gemm)
    v} *)
