(* Compiled executable plans (Exec.plan / Exec.run_plan), the one data
   path of every Full-mode run: a warm run allocates no new pool blocks,
   plan-time stats are a Model run's, Api.run replays the plan's one
   cached executable plan for the default options and plans any other
   options afresh, and traced runs keep the untraced bytes. That replay
   reproduces the canonical run byte for byte on every axis is the
   differential oracle's business (test_oracle). *)

module Api = Distal.Api
module Exec = Api.Exec
module Stats = Api.Stats
module Dense = Api.Dense
module Fault = Api.Fault

let compile = Api.compile_request_exn

(* Substituted gemm, scalar gemm and an accumulating vector statement. *)
let variants =
  List.map compile
    [
      Test_oracle.cyclic_gemm ~substitute:true;
      Test_oracle.cyclic_gemm ~substitute:false;
      Test_oracle.accumulate;
    ]

let bits = function
  | None -> []
  | Some d -> List.init (Dense.size d) (fun i -> Int64.bits_of_float (Dense.get_lin d i))

let kill_plan =
  Fault.plan ~checkpoint:true ~kills:[ Fault.kill ~proc:0 ~step:0 () ] ()

(* {2 Deterministic cases} *)

(* Steady state: after the first run primed the pool, further runs are
   served entirely from free lists — the alloc counter freezes while the
   hit counter keeps climbing. This is the "no per-fragment Dense.create
   on the data path" acceptance check, in counter form. *)
let test_pool_steady_state () =
  let plan = compile (Test_oracle.cyclic_gemm ~substitute:true) in
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
  List.iteri
    (fun variant plan ->
      let ep = Api.eplan_exn plan in
      let model = Api.run_exn ~mode:Exec.Model plan ~data:[] in
      Alcotest.(check string)
        (Printf.sprintf "variant %d plan stats == model stats" variant)
        (Stats.to_string model.Exec.stats)
        (Stats.to_string (Exec.plan_stats ep)))
    variants

(* Api.run's Full-mode path: repeated untraced runs on one plan share one
   cached executable plan. *)
let test_api_routes_through_cache () =
  let plan = compile Test_oracle.accumulate in
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
  List.iteri
    (fun variant plan ->
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
    variants

(* One executable plan per compiled plan: repeated eplan calls share it,
   default-options runs (whatever their domain count) replay it, and
   runs with any other option (a cost model, a fault plan) plan afresh
   and leave it alone. *)
let test_eplan_cache_keys () =
  let plan = compile (Test_oracle.cyclic_gemm ~substitute:true) in
  let ep = Api.eplan_exn plan in
  Alcotest.(check bool) "eplan calls share the plan" true (ep == Api.eplan_exn plan);
  let data = Api.random_inputs plan in
  ignore (Api.run_exn plan ~data);
  ignore (Api.run_exn ~domains:1 plan ~data);
  ignore (Api.run_exn ~cost:Distal_machine.Cost_model.cpu_distal plan ~data);
  ignore (Api.run_exn ~faults:kill_plan plan ~data);
  Alcotest.(check int) "only default-options runs replay it" 2 (Exec.plan_runs ep)

(* A client that sends a distinct fault plan with every request must not
   grow the process: 200 distinct kill plans on one shape leave the heap
   short of one more executable plan, with the cached plan unchanged. *)
let test_fault_plans_not_cached () =
  let plan = compile (Test_oracle.summa_gemm ~substitute:true) in
  let data = Api.random_inputs plan in
  let ep = Api.eplan_exn plan in
  let run i =
    let kill = Fault.kill ~proc:(i mod 4) ~step:(i / 4) () in
    ignore (Api.run_exn ~faults:(Fault.plan ~checkpoint:true ~kills:[ kill ] ()) plan ~data)
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  run 0;
  let w0 = live () in
  let one = Result.get_ok (Exec.plan (Api.spec plan)) in
  let plan_words = live () - w0 in
  ignore (Sys.opaque_identity one);
  let w1 = live () in
  for i = 1 to 200 do
    run i
  done;
  let grown = live () - w1 in
  if grown >= plan_words then
    Alcotest.failf "200 fault plans grew the heap by %d words (one plan: %d)" grown plan_words;
  Alcotest.(check bool) "the cached plan is unchanged" true (ep == Api.eplan_exn plan)

(* The tier every leaf takes is resolved when the plan is bound. SUMMA's
   substituted leaves call the tiled kernel, and so do the staged nests
   of the served cyclic GEMM (16x16 tiles of a 64x64 GEMM on 4x4, k in
   chunks of 8), which match the gemm kernel with no guard left to
   clamp. A sum matches no kernel, so its leaves run the staged nest, and
   so do a collapsed nest, a rotated one and empty ones. *)
let test_leaf_tiers () =
  let cyclic_gemm =
    Api.request ~machine:(Api.Machine.grid [| 4; 4 |]) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 64; 64 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 64; 64 |] ~dist:"[x,y] -> [x%1,y%1]";
          Api.tensor "C" [| 64; 64 |] ~dist:"[x,y] -> [x%1,y%1]";
        ]
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [4,4]); split(k, ko, ki, 8); \
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"
      ()
  in
  List.iter
    (fun (name, req, (tiled, staged)) ->
      let t = Exec.plan_leaf_tiers (Api.eplan_exn (compile req)) in
      Alcotest.(check (list int))
        (name ^ ": tiled, staged leaves")
        [ tiled; staged ]
        [ t.Exec.tiled; t.Exec.staged ])
    [
      ("summa 2x2", Test_oracle.summa_gemm ~substitute:true, (12, 0));
      ("cyclic gemm", cyclic_gemm, (128, 0));
      ("staged accumulate", Test_oracle.staged_accumulate, (0, 2));
      ("unstaged collapse", Test_oracle.unstaged_collapse, (0, 4));
      ("leaf rotation", Test_oracle.leaf_rotation, (0, 9));
      ("empty leaf nest", Test_oracle.empty_leaf_nest, (0, 8));
    ]

(* Output digests of leaves that once took a point-by-point fallback,
   pinned from that fallback's output on seed 1: staging them must keep
   every bit. The collapsed reduction sums over a fused (j, k), so it
   also pins the order of the fused variable's parts. *)
let test_leaf_digests () =
  let collapsed_reduction =
    Api.request ~machine:(Api.Machine.grid [| 2 |]) ~stmt:"A(i) = B(i,j,k)"
      ~tensors:
        [
          Api.tensor "A" [| 6 |] ~dist:"[x] -> [x]";
          Api.tensor "B" [| 6; 3; 4 |] ~dist:"[x,y,z] -> [x]";
        ]
      ~schedule:"distribute_onto({i}, {io}, {ii}, [2]); collapse(j, k, f)" ()
  in
  List.iter
    (fun (name, req, want) ->
      let plan = compile req in
      let r = Api.run_exn plan ~data:(Api.random_inputs ~seed:1 plan) in
      let got =
        match r.Exec.output with
        | Some d -> Digest.to_hex (Digest.bytes (Dense.to_le_bytes d))
        | None -> "no output"
      in
      Alcotest.(check string) name want got)
    [
      ("unstaged collapse", Test_oracle.unstaged_collapse, "81f5182ec63ccbce15e4f67ff61c14a2");
      ("leaf rotation", Test_oracle.leaf_rotation, "319a0069d3f11db7c6cc16b207cb60b3");
      ("empty leaf nest", Test_oracle.empty_leaf_nest, "422c8833dc23621031af53dafd189c55");
      ("collapsed reduction", collapsed_reduction, "5636ca7ffdc9d274952402694995049b");
    ]

(* {2 Concurrent runs} *)

(* An executable plan is immutable and its pool locks itself, so runs of
   one plan may overlap: two domains replay one plan at once, one on a
   single domain and one on the default pool. Every output must be a
   serial run's, bit for bit, the caller's tensors must be untouched and
   the run counter must count every run. Besides the substituted cyclic
   GEMM, the plans run staged nests: rotated, collapsed (with 64x64
   leaves, long enough for runs to meet inside one) and self-reading
   leaves. *)
let test_concurrent_runs () =
  let rounds = 20 in
  let collapsed n =
    Api.request ~machine:(Api.Machine.grid [| 2; 2 |]) ~stmt:"A(i,j) = B(i,j) + C(i,j)"
      ~tensors:(List.map (fun t -> Api.tensor t [| n; n |] ~dist:"[x,y] -> [x,y]") [ "A"; "B"; "C" ])
      ~schedule:"distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); collapse(ii, ji, f)" ()
  in
  List.iter
    (fun (name, req, staged) ->
      let plan = compile req in
      let ep = Api.eplan_exn plan in
      if staged && (Exec.plan_leaf_tiers ep).Exec.staged = 0 then
        Alcotest.failf "%s: no staged leaf" name;
      let data = Api.random_inputs ~seed:3 plan in
      let input_bits () = List.map (fun (tn, d) -> (tn, bits (Some d))) data in
      let inputs = input_bits () in
      let run domains =
        match Exec.run_plan ?domains ep ~data with
        | Ok r -> bits r.Exec.output
        | Error e -> failwith e
      in
      let serial = run (Some 1) in
      (* Both domains start replaying together, so their runs overlap. *)
      let ready = Atomic.make 0 in
      let replay domains () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        List.init rounds (fun _ -> run domains)
      in
      let outs = List.map Domain.join [ Domain.spawn (replay (Some 1)); Domain.spawn (replay None) ] in
      List.iteri
        (fun k outs ->
          List.iteri
            (fun i out ->
              if out <> serial then Alcotest.failf "%s: run %d of domain %d differs" name i k)
            outs)
        outs;
      Alcotest.(check bool) (name ^ ": inputs unchanged") true (input_bits () = inputs);
      Alcotest.(check int) (name ^ ": every run counted") (1 + (2 * rounds)) (Exec.plan_runs ep))
    [
      ("cyclic gemm", Test_oracle.cyclic_gemm ~substitute:true, false);
      ("leaf rotation", Test_oracle.leaf_rotation, true);
      ("collapsed leaf", collapsed 128, true);
      ("staged accumulate", Test_oracle.staged_accumulate, true);
    ]

let suites =
  [
    ( "plan_reuse",
      [
        Alcotest.test_case "pool steady state" `Quick test_pool_steady_state;
        Alcotest.test_case "plan stats parity" `Quick test_plan_stats_parity;
        Alcotest.test_case "api routes through cache" `Quick test_api_routes_through_cache;
        Alcotest.test_case "traced full run replays" `Quick test_traced_full_run;
        Alcotest.test_case "eplan cache keys" `Quick test_eplan_cache_keys;
        Alcotest.test_case "fault plans are not cached" `Quick test_fault_plans_not_cached;
        Alcotest.test_case "leaf tiers" `Quick test_leaf_tiers;
        Alcotest.test_case "leaf output digests" `Quick test_leaf_digests;
        Alcotest.test_case "one plan from two domains" `Quick test_concurrent_runs;
      ] );
  ]
