(* The session layer: Api with compilation (and, for repeated identical
   requests, execution) amortized across calls.

   Two LRU tiers, both keyed on canonical fingerprints
   (Api.request_fingerprint):

   - the plan cache maps a request fingerprint to its compiled plan, so
     parse / typecheck / schedule rewrites / lowering run once per
     distinct request shape. Compilation happens inside the cache's
     single-flight find_or_add, so concurrent misses on one shape compile
     exactly once and plan reuse never re-lowers.

   - the result cache maps fingerprint x run options x data seed to the
     finished Exec.result. The simulator is a deterministic pure
     function of plan x data (the determinism contract of Exec.execute),
     so replaying a cached result is semantically identical to re-running
     — this is what makes a hot serving path orders of magnitude faster
     than compile+execute, since compilation is microseconds while
     execution is milliseconds. The seed names the deterministic
     random_inputs stream. Cached outputs are returned as copies so
     callers cannot mutate the cache. A result whose output is larger
     than max_cached_result_bytes is served but never cached, and the
     cached outputs together never exceed max_result_bytes: an insert evicts
     least-recently-used results until they fit. Seeds that never repeat
     (fresh data per request) would otherwise fill the tier with results
     nobody asks for again, growing the process by every one.

   Full inputs drawn from a seed come from a session-owned buffer pool
   and go back to it when the run ends, failed or not, so a steady
   stream of seeded requests reuses the same input blocks. A replayed
   miss's output is drawn from the same pool and goes back when the
   caller releases the outcome (distald: once the reply is framed), so
   its pages are not new on every request either.

   Both caches and the pool are safe under concurrent use from
   lib/support/pool domains (Lru and Buf_pool serialize internally; the
   metrics registry is guarded here). Counters surface through lib/obs
   as serve.* metrics. *)

module Api = Distal.Api
module Dense = Distal_tensor.Dense
module Obs = Distal_obs
module Lru = Distal_support.Lru
module Buf_pool = Distal_support.Buf_pool

type outcome = {
  result : Api.Exec.result;
  fingerprint : string;
  plan_cached : bool;
  result_cached : bool;
  release : unit -> unit;
}

type t = {
  plans : (string, Api.plan) Lru.t;
  results : (string, Api.Exec.result) Lru.t;
  metrics : Obs.Metrics.registry;
  domains : int option;
  inputs : Buf_pool.t;  (* seeded Full inputs and outputs; locks itself *)
  m : Mutex.t;  (* guards the metrics registry *)
}

let default_plan_capacity = 128
let default_result_capacity = 1024
let max_cached_result_bytes = 64 * 1024
let max_result_bytes = 128 * max_cached_result_bytes

let output_bytes (r : Api.Exec.result) =
  match r.Api.Exec.output with Some d -> Dense.bytes d | None -> 0

let cacheable r = output_bytes r <= max_cached_result_bytes

let create ?(plan_cache = default_plan_capacity) ?result_cache ?domains () =
  let result_capacity =
    (* Caching results only makes sense while plans are cached too; a
       plan_cache of 0 (caching off) disables both unless the result
       capacity was given explicitly. *)
    match result_cache with
    | Some c -> c
    | None -> if plan_cache = 0 then 0 else default_result_capacity
  in
  {
    plans = Lru.create ~capacity:plan_cache;
    results =
      Lru.create_weighted ~capacity:result_capacity ~max_weight:max_result_bytes
        ~weight:output_bytes;
    metrics = Obs.Metrics.create ();
    domains;
    inputs = Buf_pool.create ();
    m = Mutex.create ();
  }

let metrics t = t.metrics

let count t name v =
  Mutex.lock t.m;
  Obs.Metrics.inc (Obs.Metrics.counter t.metrics name) v;
  Mutex.unlock t.m

let count1 t name = count t name 1.0

let count_evictions t name = function
  | [] -> ()
  | evicted -> count t name (float_of_int (List.length evicted))

let gauge_set t name v =
  Mutex.lock t.m;
  Obs.Metrics.set (Obs.Metrics.gauge t.metrics name) v;
  Mutex.unlock t.m

(* [f ()], with its wall seconds observed into the histogram [name]: the
   always-on stamps of the layers a request passes through. *)
let timed t name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.protect t.m (fun () ->
      Obs.Metrics.observe
        (Obs.Metrics.histogram ~buckets:Obs.Metrics.seconds_buckets t.metrics name)
        dt);
  r

(* {2 The plan tier} *)

let compile t req =
  let fp = Api.request_fingerprint req in
  match Lru.find_or_add t.plans fp (fun () -> Api.compile_request req) with
  | Error e -> Error e
  | Ok (plan, status) ->
      let hit = status = `Hit in
      count1 t (if hit then "serve.plan_hits" else "serve.plan_misses");
      (match status with
      | `Miss evicted -> count_evictions t "serve.plan_evictions" evicted
      | `Hit -> ());
      gauge_set t "serve.plan_entries" (float_of_int (Lru.length t.plans));
      Ok (plan, hit)

let compile_exn t req =
  match compile t req with Ok r -> r | Error e -> invalid_arg e

(* {2 Pooled inputs and outputs} *)

(* Seeded inputs on pooled blocks, handed to [run], then returned to the
   pool however [run] ends. Same draws as [Api.random_inputs ~seed]; large
   tensors fill in chunks on the domain pool that replays the run. *)
let with_seeded_inputs t ~seed plan run =
  let taken = ref [] in
  let alloc n =
    let b = Buf_pool.acquire t.inputs n in
    taken := b :: !taken;
    b
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (Buf_pool.release t.inputs) !taken;
      let s = Buf_pool.stats t.inputs in
      gauge_set t "serve.input_allocs" (float_of_int s.Buf_pool.allocs);
      gauge_set t "serve.input_parked_bytes" s.Buf_pool.cached_bytes)
    (fun () ->
      run
        (timed t "serve.inputs_s" (fun () ->
             Api.random_inputs ~alloc ?domains:t.domains ~seed plan)))

(* {2 The result tier} *)

let copy_stats (s : Api.Stats.t) = { s with Api.Stats.time = s.Api.Stats.time }

let copy_result (r : Api.Exec.result) =
  {
    Api.Exec.output = Option.map Dense.copy r.Api.Exec.output;
    stats = copy_stats r.Api.Exec.stats;
  }

(* Hands a pooled output block back at most once. *)
let release_once t = function
  | None -> ignore
  | Some b ->
      let held = Atomic.make true in
      fun () -> if Atomic.exchange held false then Buf_pool.release t.inputs b

let result_key ~fp ~mode ~faults ~seed =
  let mode_s = match mode with Api.Exec.Model -> "model" | Api.Exec.Full -> "full" in
  let faults_s = match faults with None -> "-" | Some f -> Api.Fault.to_string f in
  String.concat "|" [ fp; mode_s; faults_s; Printf.sprintf "seed:%d" seed ]

let run ?(mode = Api.Exec.Full) ?faults ~seed t req =
  count1 t "serve.requests";
  match timed t "serve.compile_s" (fun () -> compile t req) with
  | Error e -> Error e
  | Ok (plan, plan_cached) -> (
      let fp = Api.request_fingerprint req in
      let key = result_key ~fp ~mode ~faults ~seed in
      match Lru.find t.results key with
      | Some r ->
          count1 t "serve.result_hits";
          let result = timed t "serve.copy_s" (fun () -> copy_result r) in
          Ok { result; fingerprint = fp; plan_cached; result_cached = true; release = ignore }
      | None -> (
          count1 t "serve.result_misses";
          let out = ref None in
          let alloc n =
            let b = Buf_pool.acquire t.inputs n in
            out := Some b;
            b
          in
          (* The run happens outside any cache lock: concurrent misses on
             one key may race, but the simulator is deterministic so the
             duplicate results are identical and insertion is idempotent.
             A run that replays the plan's cached executable plan puts its
             output on a pooled block ([out]) that [release] hands back. *)
          let run data =
            timed t "serve.run_s" (fun () ->
                Api.run ~mode ~alloc ?domains:t.domains ?faults plan ~data)
          in
          (* A Model-mode run never reads tensor contents (its stats depend
             only on the spec), so a seed costs nothing there: building
             the inputs would only spend memory, and at paper-scale sizes
             more memory than the host has. *)
          let ran =
            match mode with
            | Api.Exec.Full -> with_seeded_inputs t ~seed plan run
            | Api.Exec.Model -> run []
          in
          match ran with
          | Error e ->
              Option.iter (Buf_pool.release t.inputs) !out;
              Error e
          | Ok result ->
              (* An oversized result is not even copied. *)
              if cacheable result then begin
                count_evictions t "serve.result_evictions"
                  (Lru.put t.results key (timed t "serve.copy_s" (fun () -> copy_result result)))
              end
              else count1 t "serve.result_uncached";
              gauge_set t "serve.result_entries" (float_of_int (Lru.length t.results));
              gauge_set t "serve.result_bytes" (float_of_int (Lru.weight t.results));
              Ok
                {
                  result;
                  fingerprint = fp;
                  plan_cached;
                  result_cached = false;
                  release = release_once t !out;
                }))

let run_exn ?mode ?faults ~seed t req =
  match run ?mode ?faults ~seed t req with
  | Ok o -> o
  | Error e -> invalid_arg e

(* {2 Introspection} *)

type counters = {
  requests : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  result_hits : int;
  result_misses : int;
  result_evictions : int;
}

let counters t =
  let c name =
    Mutex.lock t.m;
    let v = match Obs.Metrics.value t.metrics name with Some v -> int_of_float v | None -> 0 in
    Mutex.unlock t.m;
    v
  in
  {
    requests = c "serve.requests";
    plan_hits = Lru.hits t.plans;
    plan_misses = Lru.misses t.plans;
    plan_evictions = Lru.evictions t.plans;
    result_hits = c "serve.result_hits";
    result_misses = c "serve.result_misses";
    result_evictions = c "serve.result_evictions";
  }

let cached_plans t = Lru.length t.plans
let cached_results t = Lru.length t.results
let result_capacity t = Lru.capacity t.results

let clear t =
  Lru.clear t.plans;
  Lru.clear t.results
