(** Centralized parsing of [DISTAL_*] environment variables.

    All runtime knobs read from the environment go through this module so
    malformed values fail loudly and uniformly ([Invalid_argument] naming
    the variable and the offending value) rather than being silently
    ignored at individual call sites. An unset variable, or one set to
    whitespace only, always means "use the default" and returns [None]. *)

val int_var : string -> int option
(** @raise Invalid_argument when set but not an integer. *)

val positive_int_var : string -> int option
(** @raise Invalid_argument when set but not an integer [>= 1]. *)

val float_var : string -> float option
(** @raise Invalid_argument when set but not a finite number. *)

(** {2 Leaf-kernel knobs} *)

val kernel_rate : unit -> float option
(** [DISTAL_KERNEL_RATE]: flop/s rate (positive) pinned for every leaf
    kernel, overriding the calibration microbenchmarks — reproducible CI
    and what-if modelling of a different host. *)

(** {2 Packing knob} *)

val pack_overhead : unit -> float option
(** [DISTAL_PACK_OVERHEAD]: per-fragment packing cost in seconds,
    overriding the strided-copy calibration microbenchmark (positive). *)
