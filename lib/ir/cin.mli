(** Concrete index notation (§5.1, Fig. 14).

    A statement is an ordered nest of forall loops around a tensor
    assignment, together with the provenance graph of its index variables
    and the scheduling relations attached by transformations (the [s.t.]
    clause of Fig. 14). The loop list is outermost-first. *)

type annot =
  | Distributed  (** §5.2: lowered into an index task launch *)
  | Parallelized  (** intra-processor parallel loop (cores / thread blocks) *)
  | Communicate of string  (** tensor aggregated at this loop (§5.2) *)

type loop = { var : Ident.t; annots : annot list }

type t = {
  stmt : Expr.stmt;
  loops : loop list;
  prov : Provenance.t;
  substituted : (Ident.t list * string) option;
      (** leaf kernel binding from the [substitute] command: the listed
          innermost variables are implemented by the named local kernel,
          as Fig. 2 binds [CuBLAS::GeMM] *)
}

val of_stmt : Expr.stmt -> shapes:(string * int array) list -> (t, string) result
(** Lower tensor index notation to concrete index notation: one loop per
    index variable in left-to-right order (§5.1), no annotations. *)

val loop_vars : t -> Ident.t list
val find_loop : t -> Ident.t -> int option

val communicated_tensors : t -> loop -> string list
val is_distributed : loop -> bool

val distributed_vars : t -> Ident.t list
(** Variables of loops annotated [Distributed], outermost first. *)

val to_string : t -> string
(** Rendering close to the paper's: forall-quantifiers, the statement, and
    the accumulated s.t. relations. *)
