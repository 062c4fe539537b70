(** Automatic schedule and format selection (§9's first future-work
    avenue, built on the observation that DISTAL's scheduling primitives
    "provide a mechanism for future work to target when automatically
    scheduling computations for distribution", §7.2).

    A staged, cost-guided search with the simulator's own cost model as
    the objective. Candidates are enumerated lazily by stage —

    - which index variables to distribute, at most three (including
      reduction variables, which induces distributed reductions);
    - how to factor the processors into a machine grid over them
      (grids canonicalized: size-1 dimensions drop with their variable,
      so equivalent candidates are probed once and counted as dedups);
    - where to aggregate each tensor's communication (per-tensor
      placement: the innermost distributed loop, or the innermost
      distributed loop indexing the tensor);
    - whether to replicate unpartitioned inputs (the 3-D-algorithm
      memory/communication tradeoff of §4);

    — then pruned with {!Tensor_stats} bounds (certain residency vs
    processor memory, modeled-time lower bound vs the best candidate so
    far) before anything is compiled. Surviving candidates are compiled
    and model-run in fixed-size waves on the {!Distal_support.Pool}
    domain pool, with probes memoized process-wide in an
    {!Distal_support.Lru} keyed on the candidate's request fingerprint
    plus the cost model digest (512 entries).
    The chosen plan is byte-identical at every pool size: waves have a
    constant width, each probe lands in a results array at its candidate
    index whichever domain claimed it, and the reduction folds that
    array in enumeration order.

    When no [?cost] is given, the machine's default cost model is used
    with its [pack_overhead] replaced by the measured value from
    {!Distal_machine.Calibrate}, so the search trades strided packing
    against redistribution on calibrated numbers.

    Candidates that exceed processor memory and are probed anyway (they
    can still be pruned only once a feasible best exists) are kept but
    ranked last. *)

type candidate = {
  dist_vars : Distal_ir.Ident.t list;
  grid : int array;
  plan : Distal.Api.plan;
  stats : Distal_runtime.Stats.t;
}

type report = {
  enumerated : int;  (** staged expansions considered, duplicates included *)
  deduped : int;  (** skipped as canonical/fingerprint duplicates *)
  pruned : int;  (** rejected by stat bounds before compilation *)
  probed : int;  (** compiled and model-run (memoized hits included) *)
  memo_hits : int;  (** probes answered from the process-wide cache *)
  infeasible : int;  (** probes that failed to compile or run *)
  last_error : string option;  (** the most recent probe failure *)
  wall_s : float;  (** search wall-clock seconds *)
}

val search :
  ?cost:Distal_machine.Cost_model.t ->
  ?domains:int ->
  machine_of:(int array -> Distal_machine.Machine.t) ->
  procs:int ->
  stmt:string ->
  shapes:(string * int array) list ->
  unit ->
  (candidate list, string) result
(** Candidates sorted by modeled time (non-OOM first; enumeration order
    breaks exact ties, so the ranking is deterministic). [machine_of]
    builds the target machine from a grid (so callers control processor
    kind, memory and node grouping); [domains] sizes the probe pool
    (default [DISTAL_NUM_DOMAINS]) and never affects the result. On
    failure the message carries the search diagnostics: enumerated,
    deduplicated, pruned and infeasible counts plus the last probe
    error. *)

val search_report :
  ?cost:Distal_machine.Cost_model.t ->
  ?domains:int ->
  machine_of:(int array -> Distal_machine.Machine.t) ->
  procs:int ->
  stmt:string ->
  shapes:(string * int array) list ->
  unit ->
  (candidate list * report, string) result
(** {!search} plus the search's counters and wall time. *)

val best :
  ?cost:Distal_machine.Cost_model.t ->
  ?domains:int ->
  machine_of:(int array -> Distal_machine.Machine.t) ->
  procs:int ->
  stmt:string ->
  shapes:(string * int array) list ->
  unit ->
  (candidate, string) result

val describe : candidate -> string

val describe_report : report -> string

val cache_stats : unit -> int * int * int
(** Hits, misses and evictions of the process-wide probe cache. *)

val clear_cache : unit -> unit
(** Drop every memoized probe (for cold-search measurements). *)
