(** The paper's headline comparisons (§1, §7):

    - dense matrix multiply: DISTAL's best schedule vs ScaLAPACK / CTF
      (claimed at least 1.25x faster) and vs COSMA (claimed within 0.95x);
    - higher-order kernels: DISTAL vs CTF speedups (claimed 1.8x-3.7x with
      a 45.7x outlier).

    Derives every ratio from the Fig. 15a / Fig. 16 reproductions at the
    largest common node count and prints a table of paper-claim vs
    measured. *)

type row = {
  comparison : string;
  paper : string;  (** the paper's claimed factor *)
  measured : float;  (** our simulated factor (DISTAL time / other time)⁻¹ *)
}

val compute :
  fig15a:Figure.t ->
  fig16:(Figure.t * Figure.t * Figure.t * Figure.t) ->
  nodes:int ->
  row list

val print : row list -> unit

val to_json : nodes:int -> row list -> Distal_support.Json.t
(** Machine-readable rendering ([distal-bench/v1] schema, id ["headline"]):
    one object per comparison with the paper's claim and the measured
    factor (non-finite factors read [null]). *)

val save_json : file:string -> nodes:int -> row list -> unit
(** Write [to_json] (pretty-printed) to [file]. *)
