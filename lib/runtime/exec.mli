(** The task-based runtime simulator.

    This module plays Legion's role (§6): it executes the task IR the
    compiler emits. Index task launches become per-point tasks placed by
    the {!Mapper}; [Ensure] nodes materialize bounds-analysis footprints in
    the executing processor's memory, issuing copies from the owner
    partition when the data is not already local (communication in Legion
    is implicit and driven by partitions in exactly this way); leaves run
    real arithmetic on the local instances.

    Execution is deterministic and doubles as a performance simulation:
    every copy and leaf execution is also charged to a bulk-synchronous
    step structure (one step per iteration of the
    sequential loops all tasks execute in lockstep). Steps are charged
    max-over-processors of compute combined with communication under the
    cost model's overlap factor; copies of the same data to many
    destinations in one step are charged as tree broadcasts; distributed
    reductions are tree-reduced in an epilogue.

    [Model] mode is the simulation alone — no data movement, no
    arithmetic — so weak-scaling experiments can run at the paper's
    256-node scales where functional execution would be infeasible
    (see DESIGN.md, substitutions). The simulation runs in phases over
    one resolved context: resolve the spec, walk the tasks, price the
    steps into the run's record. [Full] mode is the same simulation with
    recording on ({!plan}), whose walk binds each data operation as it
    reaches it, followed by one replay of the bound operations against
    the caller's data ({!run_plan}): there is one data path. *)

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

    Each step's fetches are priced as {!Comm_plan} plans them: one block
    or strided-run message per (tensor, source, destination). The copy
    trace still lists every fragment; byte totals are the fragments'
    sum, while message counts, copy-group structure and charged times
    reflect the planned messages.

    The simulation runs on the calling domain, one task after another in
    launch-point order, each task's effects landing as it produces them.
    Tasks share the walk's footprints, fetch plans and interval lengths
    through flat arrays indexed by a mixed-radix key of the bindings
    they depend on, each no longer than the number of times the walk
    reaches its site ([exec.footprints] counts the footprints computed).
    What the walk keeps until pricing is int arrays, not per-piece
    objects: per tensor its footprint entries (rect, volume, the owner
    set holding it, fetch plan and write-back as payload ids), and in
    the run's {!Comm_plan} table every payload's pieces, merged rects,
    hull, fragment count and volume. The walk frees its memos before
    pricing, and a finished run hands its arrays to the next run on the
    same domain.
    [domains] sizes only the host domain pool that replays a [Full] run
    ({!run_plan}; default: [DISTAL_NUM_DOMAINS], else the available
    cores). Determinism contract: results, copy traces, stats and event
    streams are byte-identical for every domain count, and simulated time
    never depends on the host. Host-side numbers are gauges, never
    [Stats]: the wall clock of the simulator's resolve, walk and price
    phases ([exec.setup_wall_s], [exec.compute_wall_s],
    [exec.assembly_wall_s], with step planning inside pricing as
    [exec.plan_wall_s]), and its minor and direct major words
    ([exec.alloc_minor_words], [exec.alloc_major_words]).

    Leaves have one dispatch ({!run_plan}): substituted leaves run the
    tiled registry kernels ({!Distal_tensor.Kernel_registry.Tiled}); scalar
    leaves run their staged loop nest ({!Distal_ir.Expr_stage}), which
    hands nests matching a registry kernel to the same tiled kernels with
    the evaluator's per-element operation order (bit-identical). A
    schedule whose leaf nest staging cannot express fails {!plan} with a
    reason; [Model] runs do not stage leaves.

    With [profile], the execution registers itself as a run of the profile
    and keeps its priced record ({!Distal_obs.Critical_path.timeline}:
    the step table with per-processor slots, each step's wire payloads,
    the recovery episodes) and an [exec.*] metrics registry. The
    simulation builds no event: {!Distal_obs.Profile.events} renders the
    run's per-step compute/comm spans and copy/broadcast instants from
    the record when the profile is exported. The record and its events
    are deterministic — [Full] and [Model] runs of the same spec produce
    identical streams — and the timeline's [total] equals the returned
    [Stats.time] exactly. A [Full] run's trace and
    profile come from its planning simulation, so they are those of the
    [Model] run of the same spec.

    [faults] injects a deterministic fault plan ({!Distal_fault.Fault}).
    Killed processors lose their in-flight tasks: the effects of the
    affected launch points land on the failover processor
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
    (stats byte-identical to a [Model] run), and its walk emits, per
    launch point, the ordered data operations of the run already bound;
    {!run_plan} replays those operations against new tensor data. Each
    leaf is bound where the walk reaches it, holding every instance: its
    tier ({!plan_leaf_tiers}), its kernel or loop nest, and each
    operand's buffer, offset and strides. Input
    instances are read in place from the caller's tensors; output
    instances and reduction partials come from the plan's size-classed
    pool ({!Distal_support.Buf_pool}, capped at 64 MiB), so a warm run
    performs no per-fragment buffer allocation at all. *)

type eplan
(** A compiled executable plan for one (spec, faults) pair. Immutable:
    its only run state is its buffer pool, which locks itself, and its
    run counter. *)

val plan :
  ?faults:Distal_fault.Fault.t ->
  ?trace:trace_event list ref ->
  ?profile:Distal_obs.Profile.t ->
  spec ->
  (eplan, string) Stdlib.result
(** Compile the spec into an executable plan. [faults] affects only
    the plan-time stats ({!plan_stats}) — the replayed data
    path is fault-oblivious, which is exact: {!execute}'s recovery
    contract makes a killed-and-replayed run's output bit-identical to
    the fault-free run. [trace] and [profile] observe the planning
    simulation exactly as they observe {!execute}. Fails on invalid
    distributions, fault plans or substitutions, and on a scalar leaf
    nest staging cannot express ({!Distal_ir.Expr_stage.plan}). *)

val run_plan :
  ?alloc:(int -> Distal_tensor.Dense.buf) ->
  ?domains:int ->
  eplan ->
  data:(string * Distal_tensor.Dense.t) list ->
  (result, string) Stdlib.result
(** Execute the plan against [data]: the data path of every [Full]-mode
    run. [data] supplies the input tensors (and the output's initial
    value for [+=] or self-reading statements); a missing one is an
    error, and so is one whose shape differs from the spec's, naming
    the tensor. The caller's tensors are read in place and never
    written. The output lives on [alloc n] (a block of at least [n]
    elements; default a fresh tensor), zero-filled (or a copy of the
    given output for [+=]) before any leaf runs. Launch points run through
    {!Distal_support.Pool.parallel_for} on the shared pool of size
    [domains] (default {!Distal_support.Pool.default_size}): each
    domain claims the next point as it frees up, and the contributions
    are merged serially in launch-point order afterwards. So the output
    is byte-identical for every [domains] setting,
    every pool size and whatever fault plan the plan was compiled with;
    the returned stats are a copy of the plan-time stats. The run takes
    one pool block per output instance before its launch points run and
    returns them after the merge, and each bound leaf keeps its loop
    state per call, so runs of one plan, from any number of domains,
    may overlap. *)

val plan_stats : eplan -> Stats.t
(** Copy of the modeled per-run statistics fixed at plan time. *)

val plan_runs : eplan -> int
(** Completed {!run_plan} calls. *)

val plan_pool_stats : eplan -> Distal_support.Buf_pool.stats
(** Buffer-pool counters — steady state shows hits and no new allocs. *)

type leaf_tiers = { tiled : int; staged : int }

val plan_leaf_tiers : eplan -> leaf_tiers
(** How the plan's leaves run, counted over every launch point when the
    plan was bound: [tiled] leaves call a registry kernel (substituted
    leaves, and staged nests the registry runs), [staged] leaves run
    their staged loop nest (a nest a leaf-constant guard empties
    included). *)

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
    priced by the executor's own step assembler, the code that prices
    every step of {!execute} — planning ({!Comm_plan}), broadcast
    grouping, the duplex rule that combines per-processor occupancies and
    the rack fabric's charge for cross-rack traffic. With [profile], the
    exchange becomes a one-step timeline marked [exchange], whose export
    shows every wire message as a copy event. *)
