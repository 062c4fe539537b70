(* Compiled executable plans (Exec.plan / Exec.run_plan), the one data
   path of every Full-mode run: one plan replayed against many data sets
   must be byte-identical to the canonical run — a fresh Exec.execute on
   one domain, coalesced, fault-free — for every domain count, coalesce
   setting, pool state and fault plan, and agree with the serial
   reference; a warm run must allocate no new pool blocks. The QCheck
   matrix sweeps domains 1/3 x coalesce on/off x fault plan over three
   statement shapes (substituted gemm, scalar gemm, accumulating vector
   add); the deterministic cases pin the steady-state pool contract, the
   Api routing and traced runs. *)

module Api = Distal.Api
module Machine = Api.Machine
module Exec = Api.Exec
module Stats = Api.Stats
module Dense = Api.Dense
module Fault = Api.Fault

let to_alcotest test = QCheck_alcotest.to_alcotest ~long:true test

(* {2 Plan shapes} *)

let gemm_schedule ~substitute =
  "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 4);\n\
   reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);"
  ^ (if substitute then " substitute({ii,ji,ki}, gemm)" else "")

(* SUMMA with a block-cyclic B on a 2x2 grid: the run phase replays
   strided fragment fetches, kernel slices and a reduction-free output. *)
let gemm_plan ~substitute =
  let machine = Machine.grid [| 2; 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [x%2,y%2]";
          Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
        ]
      ()
  in
  Api.compile_script_exn p ~schedule:(gemm_schedule ~substitute)

(* Accumulating statement: the output's initial value is an input and the
   run phase must replay the read-modify-write exactly. *)
let accum_plan () =
  let machine = Machine.grid [| 4 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i) += B(i) * C(i)"
      ~tensors:
        [
          Api.tensor "A" [| 12 |] ~dist:"[x] -> [x]";
          Api.tensor "B" [| 12 |] ~dist:"[x] -> [x%1]";
          Api.tensor "C" [| 12 |] ~dist:"[x] -> [x]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:"divide(i, io, ii, 4); distribute(io); communicate({A,B,C}, io)"

let plan_of_variant = function
  | 0 -> gemm_plan ~substitute:true
  | 1 -> gemm_plan ~substitute:false
  | _ -> accum_plan ()

(* Kill a processor at step 0 with checkpointing on: plan-time stats pay
   the recovery episode while the replayed data path is fault-oblivious —
   exact, because recovery is bit-identical to the fault-free run. *)
let kill_plan =
  Fault.plan ~checkpoint:true ~kills:[ Fault.kill ~proc:0 ~step:0 () ] ()

(* {2 Byte-exact comparison} *)

let bits = function
  | None -> []
  | Some d -> List.init (Dense.size d) (fun i -> Int64.bits_of_float (Dense.get_lin d i))

(* The canonical run every replay must reproduce byte for byte: a fresh
   plan-and-replay on one domain, coalesced, fault-free. *)
let canonical plan ~data =
  match Exec.execute ~mode:Exec.Full ~domains:1 (Api.spec plan) ~data with
  | Ok r -> r
  | Error e -> QCheck.Test.fail_reportf "canonical run failed: %s" e

let reference (plan : Api.plan) ~data =
  let p = plan.Api.problem in
  let shapes = List.map (fun (t : Api.tensor) -> (t.Api.name, t.Api.shape)) p.Api.tensors in
  Exec.serial_reference p.Api.stmt ~shapes ~data

(* Replay [ep] against [data]: output bytes equal to the canonical run's,
   values within 1e-9 of the serial reference. *)
let check_replay ctx plan ep ~domains ~data =
  let reused =
    match Exec.run_plan ~domains ep ~data with
    | Ok r -> r
    | Error e -> QCheck.Test.fail_reportf "%s: run_plan failed: %s" ctx e
  in
  if bits reused.Exec.output <> bits (canonical plan ~data).Exec.output then
    QCheck.Test.fail_reportf "%s: output bytes diverge from the canonical run" ctx;
  if not (Dense.approx_equal ~tol:1e-9 (Option.get reused.Exec.output) (reference plan ~data))
  then QCheck.Test.fail_reportf "%s: output differs from the serial reference" ctx;
  true

(* {2 The matrix property}

   One compiled plan per (domains x coalesce x faults), N data sets: each
   replay must match the canonical run byte for byte. *)

let reuse_matrix_once seed =
  let variant = seed mod 3 in
  let coalesce = seed land 4 = 0 in
  let domains = if seed land 8 = 0 then 1 else 3 in
  let faults = if seed land 16 = 0 then None else Some kill_plan in
  let plan = plan_of_variant variant in
  let ep = Api.eplan_exn ~coalesce ?faults plan in
  let ctx =
    Printf.sprintf "variant %d coalesce %b domains %d faults %b seed %d" variant
      coalesce domains (faults <> None) seed
  in
  List.for_all
    (fun n ->
      let data = Api.random_inputs ~seed:((7919 * seed) + n) plan in
      check_replay (Printf.sprintf "%s dataset %d" ctx n) plan ep ~domains ~data)
    [ 0; 1; 2 ]

let qcheck_reuse_matrix =
  QCheck.Test.make
    ~name:"run_plan == fresh execute at 1 domain, coalesced, fault-free"
    ~count:48 QCheck.small_nat
    (fun seed -> reuse_matrix_once seed)

(* Same property over random programs: reuse Test_fuzz's statement /
   distribution / schedule generators, then check one compiled plan
   against the canonical run on two distinct data sets. *)
let random_reuse_once seed =
  let module Rng = Distal_support.Rng in
  let rng = Rng.create ((seed * 31) + 7) in
  let stmt, shapes, lhs_vars, rhs_vars = Test_fuzz.gen_stmt rng in
  let mdims = Array.init (1 + Rng.int rng 2) (fun _ -> 1 + Rng.int rng 3) in
  let machine = Machine.grid mdims in
  let tensors =
    List.map
      (fun (name, shape) ->
        Api.tensor_d name shape
          (Test_fuzz.gen_dist rng ~rank:(Array.length shape) ~mdims))
      shapes
  in
  match Api.problem ~machine ~stmt ~tensors () with
  | Error e -> QCheck.Test.fail_reportf "problem construction failed: %s" e
  | Ok problem -> (
      let schedule = Test_fuzz.gen_schedule rng ~lhs_vars ~rhs_vars in
      match Api.compile problem ~schedule with
      | Error e -> QCheck.Test.fail_reportf "compile failed for %s: %s" stmt e
      | Ok plan ->
          let nprocs = Array.fold_left ( * ) 1 mdims in
          let coalesce = Rng.int rng 2 = 0 in
          let domains = if Rng.int rng 2 = 0 then 1 else 3 in
          (* A kill needs a live processor left to fail over to. *)
          let faults =
            if nprocs >= 2 && Rng.int rng 2 = 0 then Some kill_plan else None
          in
          let ep =
            match Api.eplan ~coalesce ?faults plan with
            | Ok ep -> ep
            | Error e -> QCheck.Test.fail_reportf "eplan failed for %s: %s" stmt e
          in
          let ctx = Printf.sprintf "%s (seed %d)" stmt seed in
          List.for_all
            (fun n ->
              let data = Api.random_inputs ~seed:((131 * seed) + n) plan in
              check_replay (Printf.sprintf "%s dataset %d" ctx n) plan ep ~domains ~data)
            [ 0; 1 ])

let qcheck_random_reuse =
  QCheck.Test.make ~name:"random stmt x dist x schedule: replay == canonical run"
    ~count:60 QCheck.small_nat
    (fun seed -> random_reuse_once seed)

(* {2 Deterministic cases} *)

(* Steady state: after the first run primed the pool, further runs are
   served entirely from free lists — the alloc counter freezes while the
   hit counter keeps climbing. This is the "no per-fragment Dense.create
   on the data path" acceptance check, in counter form. *)
let test_pool_steady_state () =
  let plan = gemm_plan ~substitute:true in
  let ep = Api.eplan_exn plan in
  let run n =
    let data = Api.random_inputs ~seed:n plan in
    match Exec.run_plan ep ~data with
    | Ok r -> r
    | Error e -> Alcotest.failf "run_plan failed: %s" e
  in
  ignore (run 1);
  let s1 = Exec.plan_pool_stats ep in
  ignore (run 2);
  ignore (run 3);
  let s3 = Exec.plan_pool_stats ep in
  Alcotest.(check int) "no new allocations after warmup" s1.Distal_support.Buf_pool.allocs
    s3.Distal_support.Buf_pool.allocs;
  Alcotest.(check bool) "warm runs hit the pool" true
    (s3.Distal_support.Buf_pool.hits > s1.Distal_support.Buf_pool.hits);
  Alcotest.(check int) "three completed runs" 3 (Exec.plan_runs ep)

(* The modeled stats fixed at plan time are the stats a Model run
   reports (the Full/Model parity contract, inherited by plans). *)
let test_plan_stats_parity () =
  List.iter
    (fun variant ->
      let plan = plan_of_variant variant in
      let ep = Api.eplan_exn plan in
      let model = Api.run_exn ~mode:Exec.Model plan ~data:[] in
      Alcotest.(check string)
        (Printf.sprintf "variant %d plan stats == model stats" variant)
        (Stats.to_string model.Exec.stats)
        (Stats.to_string (Exec.plan_stats ep)))
    [ 0; 1; 2 ]

(* Api.run's Full-mode path: repeated untraced runs on one plan share one
   cached executable plan. *)
let test_api_routes_through_cache () =
  let plan = accum_plan () in
  let d1 = Api.random_inputs ~seed:1 plan in
  let d2 = Api.random_inputs ~seed:2 plan in
  let r1 = Api.run_exn plan ~data:d1 in
  let r2 = Api.run_exn plan ~data:d2 in
  let ep = Api.eplan_exn plan in
  Alcotest.(check int) "both runs used the cached plan" 2 (Exec.plan_runs ep);
  Alcotest.(check bool) "distinct data, distinct bytes" true
    (bits r1.Exec.output <> bits r2.Exec.output)

(* A traced, profiled Full run plans afresh under the trace and profile
   and replays once, instead of using the cached plan: its output bytes
   are the untraced run's, and its copy trace is a Model run's. *)
let test_traced_full_run () =
  List.iter
    (fun variant ->
      let plan = plan_of_variant variant in
      let data = Api.random_inputs ~seed:5 plan in
      let traced mode ~data =
        let trace = ref [] and profile = Distal_obs.Profile.create () in
        let r = Api.run_exn ~mode ~trace ~profile plan ~data in
        (r, List.map Exec.trace_to_string !trace)
      in
      let full, full_trace = traced Exec.Full ~data in
      let _, model_trace = traced Exec.Model ~data:[] in
      let plain = Api.run_exn plan ~data in
      let ctx what = Printf.sprintf "variant %d: %s" variant what in
      Alcotest.(check bool) (ctx "traced bytes == untraced bytes") true
        (bits full.Exec.output = bits plain.Exec.output);
      Alcotest.(check (list string)) (ctx "trace == model trace") model_trace full_trace)
    [ 0; 1; 2 ]

(* Distinct (coalesce, faults) options compile distinct cache entries;
   repeated identical options share one. *)
let test_eplan_cache_keys () =
  let plan = gemm_plan ~substitute:true in
  let a = Api.eplan_exn ~coalesce:true plan in
  let b = Api.eplan_exn ~coalesce:true plan in
  let c = Api.eplan_exn ~coalesce:false plan in
  let d = Api.eplan_exn ~coalesce:true ~faults:kill_plan plan in
  Alcotest.(check bool) "same options share the entry" true (a == b);
  Alcotest.(check bool) "coalesce keys apart" true (a != c);
  Alcotest.(check bool) "faults key apart" true (a != d)

let suites =
  [
    ( "plan_reuse",
      [
        to_alcotest qcheck_reuse_matrix;
        to_alcotest qcheck_random_reuse;
        Alcotest.test_case "pool steady state" `Quick test_pool_steady_state;
        Alcotest.test_case "plan stats parity" `Quick test_plan_stats_parity;
        Alcotest.test_case "api routes through cache" `Quick test_api_routes_through_cache;
        Alcotest.test_case "traced full run replays" `Quick test_traced_full_run;
        Alcotest.test_case "eplan cache keys" `Quick test_eplan_cache_keys;
      ] );
  ]
