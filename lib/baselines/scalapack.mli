(** ScaLAPACK baseline (§7.1).

    ScaLAPACK's PDGEMM implements SUMMA on a 2-D process grid. The model
    runs exactly our SUMMA plan, but with a cost model that does not
    overlap communication with computation (ScaLAPACK's synchronous
    broadcasts). CPU only, as in the paper. *)

val gemm : nodes:int -> n:int -> (Distal_runtime.Stats.t, string) result
