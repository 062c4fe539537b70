(** Host calibration of {!Cost_model} constants.

    Two families of constants are measured on the host the search
    actually runs on: [pack_overhead] — the per-fragment cost of
    gathering a strided transfer into one contiguous wire buffer, which
    the auto-scheduler needs to trade strided packing against
    redistribution honestly — and [kernel_rates], the flop/s each leaf
    kernel of {!Distal_tensor.Kernel_registry} achieves, which prices
    substituted leaves ({!Cost_model.leaf_compute_time}). See DESIGN.md,
    "Search policy" and "Leaf kernel registry".

    Measurements run once per process and are cached, so every search in
    a process prices candidates with the same constants and stays
    deterministic. [DISTAL_PACK_OVERHEAD] and [DISTAL_KERNEL_RATE]
    override the microbenchmarks entirely (useful for reproducible CI and
    for modelling a different host). Results are clamped to sane windows
    so a noisy host cannot poison the model. *)

val pack_overhead : unit -> float
(** The calibrated per-fragment packing cost in seconds: the
    [DISTAL_PACK_OVERHEAD] override if set, else a strided-vs-contiguous
    copy microbenchmark (best of 5), cached after the first call. *)

val calibrated : Cost_model.t -> Cost_model.t
(** [calibrated cost] is [cost] with its [pack_overhead] and
    [kernel_rates] replaced by the measured values. *)

val kernel_rate : string -> float
(** The calibrated achieved flop/s of a registry leaf kernel: the
    [DISTAL_KERNEL_RATE] override if set, else a timed run of the tiled
    implementation on a fixed mid-sized problem (best of 3 after a
    warmup), clamped to [1e7 .. 1e13] flop/s and cached after the first
    call. @raise Invalid_argument on unknown kernels. *)

val kernel_rates : unit -> (string * float) list
(** {!kernel_rate} for every registry kernel, in registry order. *)
