(** DISTAL's user-facing API.

    Mirrors the C++ surface of Fig. 2: declare a machine, declare tensors
    with a format that includes their distribution, write the computation
    in tensor index notation, schedule it, and run — here on the simulated
    runtime (see DESIGN.md).

    {[
      let m = Machine.grid [| 2; 2 |] in
      let a = Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]" in
      let b = Api.tensor "B" [| n; n |] ~dist:"[x,y] -> [x,y]" in
      let c = Api.tensor "C" [| n; n |] ~dist:"[x,y] -> [x,y]" in
      let p = Api.problem_exn ~machine:m ~stmt:"A(i,j) = B(i,k) * C(k,j)"
                ~tensors:[ a; b; c ] in
      let plan = Api.compile_script_exn p ~schedule:"
        distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]);
        split(k, ko, ki, 4); reorder(ko, ii, ji, ki);
        communicate(A, jo); communicate({B,C}, ko);
        substitute({ii,ji,ki}, gemm)" in
      let result = Api.run_exn plan ~data
    ]} *)

module Machine = Distal_machine.Machine
module Cost_model = Distal_machine.Cost_model
module Dense = Distal_tensor.Dense
module Kernel_registry = Distal_tensor.Kernel_registry
module Rect = Distal_tensor.Rect
module Expr = Distal_ir.Expr
module Distnot = Distal_ir.Distnot
module Schedule = Distal_ir.Schedule
module Stats = Distal_runtime.Stats
module Exec = Distal_runtime.Exec
module Obs = Distal_obs
module Fault = Distal_fault.Fault

type tensor = { name : string; shape : int array; dist : Distnot.t }

val tensor : string -> int array -> dist:string -> tensor
(** Declare a tensor with a distribution in tensor distribution notation
    (the format language of §3.2). @raise Invalid_argument on a parse
    error. *)

val tensor_d : string -> int array -> Distnot.t -> tensor

type problem = {
  machine : Machine.t;
  stmt : Expr.stmt;
  tensors : tensor list;
  virtual_grid : int array option;
      (** over-decomposition: distributions/launches target this grid and
          fold onto the machine (see {!Exec.spec}) *)
}

val problem :
  ?profile:Obs.Profile.t ->
  ?virtual_grid:int array ->
  machine:Machine.t ->
  stmt:string ->
  tensors:tensor list ->
  unit ->
  (problem, string) result
(** Parse and typecheck a tensor index notation statement against the
    declared tensors. With [profile], the parse and typecheck phases are
    recorded as wall-clock spans on the profile's compiler track. *)

val problem_exn :
  ?profile:Obs.Profile.t -> ?virtual_grid:int array -> machine:Machine.t ->
  stmt:string -> tensors:tensor list -> unit -> problem

type exec_cache
(** Per-plan cache of the default-options executable plan
    ({!Exec.eplan}). Created empty by {!compile}; filled lazily by
    {!eplan} and by default-options Full {!run}s. *)

type plan = {
  problem : problem;
  cin : Distal_ir.Cin.t;  (** the scheduled concrete index notation *)
  program : Distal_ir.Taskir.program;  (** the lowered task IR *)
  exec_cache : exec_cache;
}

val compile :
  ?profile:Obs.Profile.t -> problem -> schedule:Schedule.t list -> (plan, string) result
(** With [profile], each compiler phase (concrete index notation
    construction, schedule rewrites, lowering) is recorded as a wall-clock
    span on the profile's compiler track. *)

val compile_exn : ?profile:Obs.Profile.t -> problem -> schedule:Schedule.t list -> plan

val compile_script :
  ?profile:Obs.Profile.t -> problem -> schedule:string -> (plan, string) result
(** Schedule given as a script (see {!Schedule.parse}). *)

val compile_script_exn : ?profile:Obs.Profile.t -> problem -> schedule:string -> plan

val default_cost : Machine.t -> Cost_model.t
(** {!Cost_model.cpu_distal} or {!Cost_model.gpu_distal} by processor
    kind. *)

val spec : ?cost:Cost_model.t -> plan -> Exec.spec
(** The executor's view of a compiled plan (default cost:
    {!default_cost}) — what {!run} hands {!Exec.execute}. *)

val eplan : plan -> (Exec.eplan, string) result
(** The executable plan of the default options (the machine's cost
    model, no faults), compiled on first use and cached on the
    plan's {!exec_cache} (single-flight). Repeated {!run} calls on one
    plan — and serving-layer hits on a cached plan — replan nothing.
    Other options are not cached: {!run} plans them afresh. *)

val eplan_exn : plan -> Exec.eplan

val run :
  ?mode:Exec.mode ->
  ?alloc:(int -> Dense.buf) ->
  ?domains:int ->
  ?cost:Cost_model.t ->
  ?trace:Exec.trace_event list ref ->
  ?profile:Obs.Profile.t ->
  ?faults:Fault.t ->
  plan ->
  data:(string * Dense.t) list ->
  (Exec.result, string) result
(** With [profile], the execution registers as a run of the profile and
    emits spans, copy events, metrics and a step timeline; [domains]
    sizes the host domain pool of a Full run's replay (the simulation
    always runs on the calling domain), which affects no output, trace,
    stat or event stream; [faults] injects a deterministic fault plan
    whose kills are recovered by checkpoint/replay, bit-identically (see
    {!Exec.execute}).

    A Full-mode call with the default options (no [trace], [profile],
    [cost] or [faults]) replays the plan's cached executable plan
    ({!eplan} + {!Exec.run_plan}): plan once, then run
    each call against its data with pooled buffers, the output on
    [alloc n] (default a fresh tensor; no other run calls [alloc], so a
    caller that pools outputs knows from it whether one was drawn). Any
    other Full-mode call compiles a fresh executable plan under its
    options and replays that once ({!Exec.execute}); its output bytes
    are those of the cached path. The returned stats are the plan-time
    modeled stats either way. *)

val run_exn :
  ?mode:Exec.mode -> ?domains:int ->
  ?cost:Cost_model.t -> ?trace:Exec.trace_event list ref ->
  ?profile:Obs.Profile.t -> ?faults:Fault.t -> plan ->
  data:(string * Dense.t) list -> Exec.result

val estimate : ?cost:Cost_model.t -> ?profile:Obs.Profile.t -> plan -> Stats.t
(** Performance-model-only execution ({!Exec.Model} mode). *)

val resilience :
  ?cost:Cost_model.t ->
  faults:Fault.t ->
  plan ->
  (Stats.t * Stats.t * string, string) result
(** Model-mode the plan twice — fault-free, then under [faults] — and
    return both stats plus {!Obs.Report.resilience_report}'s side-by-side
    rendering of the recovery overhead. *)

val resilience_exn :
  ?cost:Cost_model.t -> faults:Fault.t -> plan -> Stats.t * Stats.t * string

val random_inputs :
  ?alloc:(int -> Dense.buf) -> ?domains:int -> ?seed:int -> plan -> (string * Dense.t) list
(** Deterministic random data for every tensor of the plan (including the
    output, for [+=] statements). Each tensor's storage comes from
    [alloc n] (a block of at least [n] elements; default a fresh one).
    Tensors larger than {!Distal_support.Rng.fill_chunk} elements fill
    in chunks on the shared domain pool of size [domains] (default
    {!Distal_support.Pool.default_size}, as {!run}). The data depends on
    neither where it lives nor the pool size. *)

val validate : plan -> (unit, string) result
(** Run the plan on random data (seed 42) and compare against the serial
    reference interpreter ({!Dense.approx_equal} with [tol] 1e-7) — the
    end-to-end check that scheduling only affects performance, never
    results (§3.3). *)

val describe : plan -> string
(** The scheduled concrete index notation and the generated task-IR
    pseudo-code. *)

val input_bytes : plan -> float
(** Total payload bytes of the statement's tensors (for GB/s reporting). *)


(** {2 Requests: the serving layer's unit of work}

    A request bundles everything that determines a compiled plan —
    statement, schedule script, machine, virtual grid, tensor
    declarations — as one immutable value, so a session layer
    (lib/serve) can cache compilation keyed on {!request_fingerprint}
    without re-parsing anything on a hit. *)

type request = {
  req_machine : Machine.t;
  req_virtual_grid : int array option;
  req_tensors : tensor list;
  req_stmt : string;  (** tensor index notation, unparsed *)
  req_schedule : string;  (** schedule script, unparsed *)
}

val request :
  ?virtual_grid:int array ->
  machine:Machine.t ->
  stmt:string ->
  schedule:string ->
  tensors:tensor list ->
  unit ->
  request

val request_fingerprint : request -> string
(** Canonical fingerprint of expr x schedule x machine x virtual grid x
    tensor distributions: an MD5 hex digest of an injective
    length-delimited encoding of the declarative request fields. Equal
    requests always collide; distinct requests differ (up to MD5).
    Computed without parsing, so cache hits cost no compiler work. *)

val compile_request : ?profile:Obs.Profile.t -> request -> (plan, string) result
(** [problem] + [compile_script] in one step: parse, typecheck and
    compile the request. The session layer's miss path. *)

val compile_request_exn : ?profile:Obs.Profile.t -> request -> plan

(** {2 Multi-statement pipelines}

    Kernels run in the context of larger programs (§1): a pipeline chains
    statements over a shared set of declared tensors, each stage with its
    own schedule, with earlier stages' outputs feeding later stages. The
    workspace split of {!Distal_ir.Precompute} produces exactly such
    pipelines. *)

type pipeline = { machine : Machine.t; tensors : tensor list; stages : plan list }

val pipeline :
  machine:Machine.t ->
  tensors:tensor list ->
  stages:(string * Schedule.t list) list ->
  (pipeline, string) result
(** Each stage is a statement and its schedule. A stage may read tensors
    produced by earlier stages. *)

val pipeline_script :
  machine:Machine.t ->
  tensors:tensor list ->
  stages:(string * string) list ->
  (pipeline, string) result

val run_pipeline :
  ?cost:Cost_model.t ->
  pipeline ->
  data:(string * Dense.t) list ->
  ((string * Dense.t) list * Stats.t, string) result
(** Execute all stages in order; returns every stage's output (by tensor
    name) and the summed statistics. *)

val estimate_pipeline : ?cost:Cost_model.t -> pipeline -> Stats.t

val validate_pipeline : pipeline -> (unit, string) result
(** Run the pipeline on random data and compare every stage output against
    the serial reference chain, as {!validate} does. *)

val redistribute :
  machine:Machine.t ->
  ?cost:Cost_model.t ->
  ?profile:Obs.Profile.t ->
  shape:int array ->
  src:Distnot.t ->
  dst:Distnot.t ->
  unit ->
  Stats.t
(** Re-exported {!Exec.redistribute} with a default cost model. *)
