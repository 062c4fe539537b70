(** The session layer of compile-and-serve: {!Distal.Api} with
    compilation — and, for byte-identical repeated requests, execution —
    amortized across calls.

    A session holds two LRU tiers keyed on
    {!Distal.Api.request_fingerprint}: a {e plan cache} (parse /
    typecheck / schedule / lower once per distinct request shape;
    compilation is single-flight, and plan reuse never re-lowers) and a
    {e result cache} (the simulator is a deterministic pure function of
    plan x data, so identical requests replay the finished result;
    results with outputs above {!max_cached_result_bytes} are served
    without being cached, and the cached outputs total at most
    {!max_result_bytes}).
    Served results are byte-identical to direct [Api.run_exn] — cache
    hits return defensive copies.

    Sessions are safe under concurrent use from {!Distal_support.Pool}
    domains. Counters surface as [serve.*] metrics through the session's
    {!Distal_obs.Metrics} registry. *)

module Api = Distal.Api

type t

val default_plan_capacity : int
(** 128 *)

val default_result_capacity : int
(** 1024 *)

val max_cached_result_bytes : int
(** 64 KiB: the largest output (in float64 bytes) the result cache keeps.
    Larger results are served but not cached. *)

val max_result_bytes : int
(** 8 MiB (128 x {!max_cached_result_bytes}): the most output bytes the
    result cache holds in total. An insert evicts least-recently-used
    results until the cached outputs fit, so a stream of seeds that never
    repeat costs at most this much memory. Model results carry no output
    and weigh nothing. *)

val create : ?plan_cache:int -> ?result_cache:int -> ?domains:int -> unit -> t
(** [plan_cache] defaults to 128 entries; [0] disables caching (every
    request compiles and runs). [result_cache] defaults to 1024, or [0]
    whenever the plan cache is disabled.
    [domains] pins the host domain-pool size that replays Full requests
    ({!Distal.Api.Exec.run_plan}) and fills their seeded inputs
    ({!Distal.Api.random_inputs}); simulation always runs on the calling
    domain and never touches the pool. *)

val metrics : t -> Distal_obs.Metrics.registry
(** The [serve.*] registry: [serve.requests], [serve.plan_hits]/
    [_misses]/[_evictions], [serve.result_hits]/[_misses]/[_evictions],
    [serve.result_uncached] (results served without caching because
    their output exceeds {!max_cached_result_bytes}), the
    [serve.plan_entries]/[serve.result_entries] gauges, the
    [serve.result_bytes] gauge (cached output bytes), the
    [serve.input_allocs]/[serve.input_parked_bytes] gauges of the pool
    seeded Full inputs and replayed outputs are drawn from.

    {!run} also stamps the wall seconds of each layer a request passes
    through, always on, as histograms: [serve.compile_s] (the plan tier,
    every request), [serve.inputs_s] (drawing seeded Full inputs, on a
    result miss), [serve.run_s] (replay or simulation, on a result miss)
    and [serve.copy_s] (copying a result into or out of the result
    cache). *)

val timed : t -> string -> (unit -> 'a) -> 'a
(** [timed t name f] runs [f] and observes its wall seconds into the
    histogram [name] of {!metrics} (decade buckets from 1 µs). *)

val compile : t -> Api.request -> (Api.plan * bool, string) result
(** The plan tier alone: the compiled plan and whether it was a cache
    hit. *)

val compile_exn : t -> Api.request -> Api.plan * bool

type outcome = {
  result : Api.Exec.result;
  fingerprint : string;
  plan_cached : bool;
  result_cached : bool;
  release : unit -> unit;
      (** Hands the pooled block behind a replayed miss's output back to
          the session (see {!run}); the output must not be read after.
          A no-op for every other outcome and after the first call. *)
}

val run :
  ?mode:Api.Exec.mode ->
  ?faults:Api.Fault.t ->
  seed:int ->
  t ->
  Api.request ->
  (outcome, string) result
(** Serve one request (default mode [Full]). A [Full] request runs on
    [Api.random_inputs ~seed], drawn on blocks from a session-owned pool
    that get returned when the run ends, whether it succeeded or not. A
    [Model] request never builds its inputs: modeled stats do not read
    tensor contents.

    Every miss runs through {!Distal.Api.run} with the pool as its
    output allocator, so a [Full] miss without a fault plan replays the
    plan's cached executable plan with its output on a block from the
    same pool. That output is the outcome's until
    [release] hands the block back; distald releases it once the reply
    is framed, which is after the result cache took its own copy. An
    outcome never released leaves its block to the GC. Hits return
    copies and Model or faulted runs fresh tensors, which nothing
    hands back.
    The result-cache key covers mode, fault plan and seed, so a hit is
    only ever returned for a run that would have produced identical
    bytes. *)

val run_exn :
  ?mode:Api.Exec.mode ->
  ?faults:Api.Fault.t ->
  seed:int ->
  t ->
  Api.request ->
  outcome

type counters = {
  requests : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  result_hits : int;
  result_misses : int;
  result_evictions : int;
}

val counters : t -> counters

val cached_plans : t -> int
val cached_results : t -> int

val result_capacity : t -> int
(** The result tier's capacity, as {!create} resolved it. *)

val clear : t -> unit
(** Drop both tiers (counters are kept). *)
