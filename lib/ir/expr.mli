(** Tensor index notation (§2).

    Statements are assignments whose left side is a tensor access and whose
    right side is built from addition, subtraction and multiplication of
    accesses and constants; variables used only on the right denote sum
    reductions over their domain. A scalar is an access with no indices. *)

type access = { tensor : string; indices : Ident.t list }

type t =
  | Access of access
  | Const of float
  | Add of t * t
  | Sub of t * t
  | Mul of t * t

type stmt = {
  lhs : access;
  rhs : t;
  accum : bool;  (** [true] for [+=], [false] for [=] *)
}

val accesses : t -> access list
(** Left-to-right order, with duplicates. *)

val stmt_accesses : stmt -> access list
(** The lhs access followed by the rhs accesses. *)

val tensors : stmt -> string list
(** Distinct tensor names in order of first appearance (lhs first). *)

val index_vars : stmt -> Ident.t list
(** Distinct index variables in order of first appearance, lhs first — the
    default loop order ("left-to-right traversal", §5.1). *)

val reduction_vars : stmt -> Ident.t list
(** Variables appearing in the rhs but not the lhs. *)

val reads_output : stmt -> bool
(** Whether the output tensor also appears on the right-hand side
    (e.g. [A(i,j) = A(i,j) + B(i,j)]). Such statements read the caller's
    value of the output even when they do not accumulate. *)

val eval : stmt -> lookup:(access -> int array -> float) -> point:(Ident.t -> int) -> float
(** Evaluate the rhs at one iteration-space point. [lookup] resolves tensor
    reads; [point] gives each index variable's value. *)

val to_string : stmt -> string
val access_to_string : access -> string
