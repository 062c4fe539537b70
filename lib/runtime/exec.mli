(** The task-based runtime simulator.

    This module plays Legion's role (§6): it executes the task IR the
    compiler emits. Index task launches become per-point tasks placed by
    the {!Mapper}; [Ensure] nodes materialize bounds-analysis footprints in
    the executing processor's memory, issuing copies from the owner
    partition when the data is not already local (communication in Legion
    is implicit and driven by partitions in exactly this way); leaves run
    real arithmetic on the local instances.

    Execution is deterministic and doubles as a performance simulation:
    every copy and leaf execution is also logged as a timed event in a
    bulk-synchronous step structure (one step per iteration of the
    sequential loops all tasks execute in lockstep). Steps are charged
    max-over-processors of compute combined with communication under the
    cost model's overlap factor; copies of the same data to many
    destinations in one step are charged as tree broadcasts; distributed
    reductions are tree-reduced in an epilogue.

    [Model] mode is the simulation alone — no data movement, no
    arithmetic — so weak-scaling experiments can run at the paper's
    256-node scales where functional execution would be infeasible
    (see DESIGN.md, substitutions). [Full] mode is the same simulation
    with data-op recording on ({!plan}) followed by one replay of the
    recorded operations against the caller's data ({!run_plan}): there
    is one data path. *)

type mode = Full | Model

type spec = {
  machine : Distal_machine.Machine.t;
  cost : Distal_machine.Cost_model.t;
  program : Distal_ir.Taskir.program;
  dists : (string * Distal_ir.Distnot.t) list;  (** one per tensor *)
  virtual_grid : int array option;
      (** Over-decomposition: distributions and launches target this
          virtual processor grid, whose points are folded onto the
          physical machine by linearization modulo the processor count
          (Johnson's algorithm on non-cube machines, §7.1.2). [None] means
          the machine's own grid. *)
}

type result = { output : Distal_tensor.Dense.t option; stats : Stats.t }

(** One copy the runtime issued: which piece of which tensor moved from
    which processor to which, at which bulk-synchronous step. *)
type trace_event = {
  step : int;
  tensor : string;
  piece : Distal_tensor.Rect.t;
  src : int array;
  dst : int array;
  bytes : float;
}

val trace_to_string : trace_event -> string

val execute :
  ?mode:mode ->
  ?coalesce:bool ->
  ?domains:int ->
  ?trace:trace_event list ref ->
  ?profile:Distal_obs.Profile.t ->
  ?faults:Distal_fault.Fault.t ->
  spec ->
  data:(string * Distal_tensor.Dense.t) list ->
  (result, string) Stdlib.result
(** Run the program. [data] supplies the input tensors (and, for [+=]
    statements, the output's initial value); in [Model] mode it is ignored
    and [output] is [None]. With [trace], every copy event is appended to
    the list (in issue order) — the communication pattern of Fig. 8/12.

    [coalesce] (default [true]) runs {!Comm_plan} over each step's raw
    transfers, merging same-source/same-destination fragments into block
    or strided-run messages before they are priced — functional results,
    traces and byte totals are unchanged; message counts, copy-group
    structure and charged times reflect the merged plan. Pass [false] to
    price every fragment as its own message (the pre-planning model).

    [domains] sets the host domain-pool size used to probe the launch's
    independent tasks concurrently and to replay them (default:
    [DISTAL_NUM_DOMAINS], else the available cores). Determinism
    contract: results, copy traces, stats and event streams are
    byte-identical for every domain count — tasks record deferred effects
    that are merged in launch-point order after the pool joins — and
    simulated time never depends on host parallelism. Host-side numbers
    are gauges, never [Stats]: the wall clock of set-up, probe, merge and
    assembly ([exec.setup_wall_s], [exec.compute_wall_s],
    [exec.merge_wall_s], [exec.assembly_wall_s], with planning inside
    assembly as [exec.plan_wall_s]), [exec.pool_domains],
    [exec.pool_utilization], and the words every lane allocated
    ([exec.alloc_minor_words], [exec.alloc_major_words]).

    Leaves have one dispatch ({!run_plan}): substituted leaves run the
    tiled registry kernels ({!Distal_tensor.Kernel_registry.Tiled}); scalar
    leaves run their staged loop nest ({!Distal_ir.Expr_stage}), which
    hands nests matching a registry kernel to the same tiled kernels with
    the evaluator's per-element operation order (bit-identical), and fall
    back to the generic [Expr.eval] loop only where staging cannot express
    the nest.

    With [profile], the execution registers itself as a run of the profile
    and emits structured observability data: per-step compute/comm spans
    for every processor, copy/broadcast instants with tensor, piece and
    byte attributes, a per-step timeline for
    {!Distal_obs.Critical_path.analyse}, and an [exec.*] metrics registry.
    The event stream is deterministic — [Full] and [Model] runs of the
    same spec produce identical streams — and the timeline's [total]
    equals the returned [Stats.time] exactly. A [Full] run's trace and
    profile come from its planning simulation, so they are those of the
    [Model] run of the same spec.

    [faults] injects a deterministic fault plan ({!Distal_fault.Fault}).
    Killed processors lose their in-flight tasks: the affected launch
    points are re-probed and their effects land on the failover processor
    ({!Mapper.fallback}); the simulated clock pays one recovery episode
    per kill — failure detection, checkpoint restore from the buddy
    replica (when the plan enables checkpointing; a full restart
    otherwise) and the replay of the steps since the last boundary —
    priced through the cost model and reported via [exec.recovery_time],
    [exec.faults_injected], [exec.replayed_steps], [exec.checkpoint_bytes]
    and [exec.restore_bytes]. Dropped messages cost a retransmission,
    delayed ones hold their receiver back. Recovery is exact: the final
    output of a killed-and-replayed run is bit-identical to the fault-free
    run. An absent or empty plan (no events, checkpointing off) changes
    nothing — results, traces, stats and event streams are byte-identical
    to a run without fault support; a fault-free run with checkpointing
    on additionally reports [exec.checkpoint_bytes] /
    [exec.checkpoint_time] but its results, traces and simulated times
    are likewise untouched (checkpoint writes overlap the run). *)

(** {2 Compiled executable plans}

    {!execute} re-derives the whole simulation — footprints, fetch plans,
    coalesced communication, pricing — on every call, even though all of
    it depends only on the spec, never on tensor contents. A compiled
    executable plan splits that work: {!plan} runs the simulation once
    (stats byte-identical to a [Model] run) while recording, per launch
    point, the ordered data operations of the run; {!run_plan} replays
    those operations against new tensor data. Run-phase buffers — instance fragments, reduction partials,
    kernel slices — come from a size-classed pool with per-lane arenas
    ({!Distal_support.Buf_pool}, capped by [DISTAL_POOL_MB]), so a warm
    run performs no per-fragment buffer allocation at all. *)

type eplan
(** A compiled executable plan for one (spec, coalesce, faults) triple. *)

val plan :
  ?coalesce:bool ->
  ?faults:Distal_fault.Fault.t ->
  ?trace:trace_event list ref ->
  ?profile:Distal_obs.Profile.t ->
  spec ->
  (eplan, string) Stdlib.result
(** Compile the spec into an executable plan. [coalesce] and [faults]
    affect only the plan-time stats ({!plan_stats}) — the replayed data
    path is fault-oblivious, which is exact: {!execute}'s recovery
    contract makes a killed-and-replayed run's output bit-identical to
    the fault-free run. [trace] and [profile] observe the planning
    simulation exactly as they observe {!execute}. Fails on invalid
    distributions, fault plans or substitutions. *)

val run_plan :
  ?domains:int ->
  eplan ->
  data:(string * Distal_tensor.Dense.t) list ->
  (result, string) Stdlib.result
(** Execute the plan against [data]: the data path of every [Full]-mode
    run. [data] supplies the input tensors (and the output's initial
    value for [+=] or self-reading statements); a missing one is an
    error. The output is byte-identical for every [domains] setting,
    every pool size and whatever fault plan the plan was compiled with;
    the returned stats are a copy of the plan-time stats. Runs of one
    plan serialize on an internal lock (the buffer arenas are per-plan
    state); distinct plans run concurrently. *)

val plan_stats : eplan -> Stats.t
(** Copy of the modeled per-run statistics fixed at plan time. *)

val plan_runs : eplan -> int
(** Completed {!run_plan} calls. *)

val plan_pool_stats : eplan -> Distal_support.Buf_pool.stats
(** Buffer-pool counters — steady state shows hits and no new allocs. *)

val serial_reference :
  Distal_ir.Expr.stmt ->
  shapes:(string * int array) list ->
  data:(string * Distal_tensor.Dense.t) list ->
  Distal_tensor.Dense.t
(** Single-processor interpreter of tensor index notation, used as the
    correctness oracle for every distributed schedule. *)

val redistribute :
  ?profile:Distal_obs.Profile.t ->
  Distal_machine.Machine.t ->
  Distal_machine.Cost_model.t ->
  shape:int array ->
  src:Distal_ir.Distnot.t ->
  dst:Distal_ir.Distnot.t ->
  Stats.t
(** Cost of moving a tensor between two distributed layouts (§1: "easily
    transform data between distributed layouts to match the computation").
    One bulk-synchronous exchange step with no compute: the transfers each
    destination owner needs are discovered tile by tile, then the step is
    priced and profiled by the executor's own step assembler, the code that
    prices every step of {!execute} — planning ({!Comm_plan}), broadcast
    grouping, the duplex rule that combines per-processor occupancies and
    the rack fabric's charge for cross-rack traffic. With [profile], every
    transfer is recorded as a copy event and the exchange becomes a
    one-step timeline. *)
