(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) on the simulated machine, plus real wall-clock
   micro-benchmarks (Bechamel) of the local leaf kernels and of the
   compiler itself.

   Usage: main.exe [section ...]
   Sections: leaf compile fig15a fig15b fig16a fig16b fig16c fig16d
             headline simperf ablation. No arguments runs everything.

   simperf measures the simulator itself (wall-clock throughput over a
   fig16-sized kernel and a cyclic GEMM) and writes BENCH_simperf.json;
   simperf-small is the quick configuration the test suite runs.

   main.exe profile [target] [-o out.json] runs a target under the
   observability subsystem (lib/obs), writes a Chrome trace_event JSON
   loadable in Perfetto, prints per-run step/critical-path reports and
   checks that the critical-path end time reproduces the simulator's
   total for every run. *)

module Fig15 = Distal_harness.Fig15
module Fig16 = Distal_harness.Fig16
module Figure = Distal_harness.Figure
module Headline = Distal_harness.Headline
module Kernels = Distal_tensor.Kernels
module Dense = Distal_tensor.Dense
module Rng = Distal_support.Rng
module Api = Distal.Api
module Machine = Api.Machine
module Profile = Distal_obs.Profile
module Metrics = Distal_obs.Metrics
module Cp = Distal_obs.Critical_path
module Report = Distal_obs.Report
module Chrome_trace = Distal_obs.Chrome_trace
module Json = Distal_support.Json

(* {2 Bechamel micro-benchmarks} *)

let run_bechamel ~name tests =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Distal_support.Table.create ~header:[ "benchmark"; "time/run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun key ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
      in
      rows := (key, ns) :: !rows)
    results;
  List.iter
    (fun (key, ns) ->
      let human =
        if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else Printf.sprintf "%.1f us" (ns /. 1e3)
      in
      Distal_support.Table.add_row table [ key; human ])
    (List.sort compare !rows);
  Distal_support.Table.print table;
  print_newline ()

let leaf_benches () =
  print_endline "== leaf: local kernel micro-benchmarks (real wall clock) ==";
  let open Bechamel in
  let rng = Rng.create 1 in
  let n = 96 in
  let b2 = Dense.random rng [| n; n |] and c2 = Dense.random rng [| n; n |] in
  let b3 = Dense.random rng [| 48; 48; 48 |] in
  let c3 = Dense.random rng [| 48; 48; 48 |] in
  let v = Dense.random rng [| 48 |] in
  let cm = Dense.random rng [| 48; 32 |] and dm = Dense.random rng [| 48; 32 |] in
  let tests =
    [
      Test.make ~name:"gemm-96" (Staged.stage (fun () ->
          Kernels.gemm ~a:(Dense.create [| n; n |]) ~b:b2 ~c:c2));
      Test.make ~name:"ttv-48" (Staged.stage (fun () ->
          Kernels.ttv ~a:(Dense.create [| 48; 48 |]) ~b:b3 ~c:v));
      Test.make ~name:"ttm-48" (Staged.stage (fun () ->
          Kernels.ttm ~a:(Dense.create [| 48; 48; 32 |]) ~b:b3 ~c:cm));
      Test.make ~name:"mttkrp-48" (Staged.stage (fun () ->
          Kernels.mttkrp ~a:(Dense.create [| 48; 32 |]) ~b:b3 ~c:cm ~d:dm));
      Test.make ~name:"innerprod-48" (Staged.stage (fun () ->
          ignore (Kernels.inner_product b3 c3)));
    ]
  in
  run_bechamel ~name:"leaf" tests

let compile_benches () =
  print_endline "== compile: compiler pipeline micro-benchmarks (real wall clock) ==";
  let open Bechamel in
  let machine = Machine.grid [| 4; 4 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 1024; 1024 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 1024; 1024 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "C" [| 1024; 1024 |] ~dist:"[x,y] -> [x,y]";
        ] ()
  in
  let summa =
    "distribute_onto({i,j}, {io,jo}, {ii,ji}, [4,4]); split(k, ko, ki, 64);\n\
     reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);\n\
     substitute({ii,ji,ki}, gemm)"
  in
  let plan = Api.compile_script_exn p ~schedule:summa in
  let tests =
    [
      Test.make ~name:"parse-einsum" (Staged.stage (fun () ->
          ignore (Distal_ir.Einsum_parser.parse_exn "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)")));
      Test.make ~name:"parse-schedule" (Staged.stage (fun () ->
          ignore (Result.get_ok (Distal_ir.Schedule.parse summa))));
      Test.make ~name:"compile-summa" (Staged.stage (fun () ->
          ignore (Api.compile_script_exn p ~schedule:summa)));
      Test.make ~name:"estimate-summa-4x4" (Staged.stage (fun () ->
          ignore (Api.estimate plan)));
    ]
  in
  run_bechamel ~name:"compile" tests

(* {2 Figures} *)

let strong () =
  Figure.print (Distal_harness.Strong.gemm ~kind:Machine.Gpu ());
  Figure.print
    { (Distal_harness.Strong.gemm ~kind:Machine.Cpu ()) with Figure.id = "strong-cpu" }

let csv () =
  let dir = "results" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      Printf.printf "wrote %s\n" (Figure.save_csv ~dir f);
      Printf.printf "wrote %s\n" (Figure.save_json ~dir f))
    [
      Fig15.cpu (); Fig15.gpu (); Fig16.ttv (); Fig16.innerprod (); Fig16.ttm ();
      Fig16.mttkrp ();
      Distal_harness.Strong.gemm ~kind:Machine.Gpu ();
    ]

let fig15a () = Figure.print (Fig15.cpu ())
let fig15b () = Figure.print (Fig15.gpu ())
let fig16a () = Figure.print (Fig16.ttv ())
let fig16b () = Figure.print (Fig16.innerprod ())
let fig16c () = Figure.print (Fig16.ttm ())
let fig16d () = Figure.print (Fig16.mttkrp ())

let headline () =
  let fig15a = Fig15.cpu () in
  let f16 = (Fig16.ttv (), Fig16.innerprod (), Fig16.ttm (), Fig16.mttkrp ()) in
  let rows = Headline.compute ~fig15a ~fig16:f16 ~nodes:256 in
  Headline.print rows;
  let file = "BENCH_headline.json" in
  Headline.save_json ~file ~nodes:256 rows;
  Printf.printf "wrote %s\n" file

(* {2 simperf: wall-clock throughput of the simulator itself}

   Unlike every other section, this measures the simulator as a program,
   not the machine it models: tasks simulated per second, copy groups
   formed per second, and wall-clock per execution, on a fig16-sized
   tensor kernel and on cyclically-distributed workloads whose huge tile
   sets exercise the closed-form tile queries ([Distnot.pieces] and
   [Distnot.holders]). *)

(* SUMMA-style GEMM over cyclically distributed operands: every
   communicate point intersects its footprint with a per-element tile set,
   the hot path the closed-form tile queries ([Distnot.pieces]) serve. *)
let simperf_gemm ~n ~grid ~chunks =
  let machine = Machine.grid [| grid; grid |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| n; n |] ~dist:"[x,y] -> [x%1,y%1]";
          Api.tensor "C" [| n; n |] ~dist:"[x,y] -> [x%1,y%1]";
        ]
      ()
  in
  let schedule =
    Printf.sprintf
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d]); split(k, ko, ki, %d);\n\
       reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"
      grid grid chunks
  in
  Api.compile_script_exn p ~schedule

(* Fig16-sized TTV, cyclic over i and over-decomposed onto a virtual
   grid: thousands of tasks each resolve a distinct footprint against a
   tile-per-row layout, so piece lookup — not event processing — is the
   bottleneck. *)
let simperf_cyclic_ttv ~i ~jk ~procs ~vprocs =
  let machine = Machine.grid ~kind:Machine.Cpu ~mem_per_proc:256e9 [| procs |] in
  let p =
    Api.problem_exn ~machine ~virtual_grid:[| vprocs |] ~stmt:"A(i,j) = B(i,j,k) * c(k)"
      ~tensors:
        [
          Api.tensor "A" [| i; jk |] ~dist:"[x,y] -> [x%1]";
          Api.tensor "B" [| i; jk; jk |] ~dist:"[x,y,z] -> [x%1]";
          Api.tensor "c" [| jk |] ~dist:"[x] -> [*]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      (Printf.sprintf "divide(i, io, ii, %d); distribute(io); communicate({A,B,c}, io)"
         vprocs)

let now () = Distal_support.Pool.now ()

(* One profiled run for the event counts (which doubles as warmup), then
   [reps] timed runs, keeping the best: the minimum over repetitions is
   the standard de-noising for wall-clock measurement — scheduler and GC
   interference only ever add time. *)
let simperf_measure plan ~reps =
  let profile = Profile.create () in
  (match Api.run ~mode:Api.Exec.Model ~profile plan ~data:[] with
  | Ok _ -> ()
  | Error e -> failwith ("simperf run failed: " ^ e));
  let metric name run =
    match Metrics.value run.Profile.metrics name with Some v -> v | None -> 0.0
  in
  let run = List.hd (Profile.runs profile) in
  let tasks = metric "exec.tasks" run in
  let groups = metric "exec.copy_groups" run in
  let ratio = metric "exec.coalesce_ratio" run in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    (match Api.run ~mode:Api.Exec.Model plan ~data:[] with
    | Ok _ -> ()
    | Error e -> failwith ("simperf run failed: " ^ e));
    let w = now () -. t0 in
    if w < !best then best := w
  done;
  (tasks, groups, ratio, !best)

(* Best wall clock of [f] over [reps] timed calls, after one warm-up
   call. *)
let best_wall ~reps f =
  f ();
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    f ();
    let w = now () -. t0 in
    if w < !best then best := w
  done;
  !best

(* An unsubstituted GEMM: the leaf is the generic scalar loop nest over
   (ii, ji, k), the workload the staged evaluator exists for. *)
let simperf_leaf ~n ~grid =
  let machine = Machine.grid [| grid; grid |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| n; n |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "C" [| n; n |] ~dist:"[x,y] -> [x,y]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      (Printf.sprintf
         "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d]); communicate(A, jo);\n\
          communicate({B,C}, jo)"
         grid grid)

let simperf_run ~small () =
  Printf.printf "== simperf: simulator throughput (real wall clock%s) ==\n"
    (if small then ", small config" else "");
  let module H = Distal_algorithms.Higher_order in
  let specs =
    if small then
      [
        ("cyclic-gemm", simperf_gemm ~n:64 ~grid:4 ~chunks:8, 3);
        ("cyclic-ttv", simperf_cyclic_ttv ~i:512 ~jk:32 ~procs:4 ~vprocs:128, 3);
        ( "ttv",
          (Result.get_ok
             (H.ttv ~i:256 ~j:64 ~k:64
                ~machine:(Machine.grid ~kind:Machine.Cpu ~mem_per_proc:256e9 [| 4 |])))
            .H.plan,
          3 );
      ]
    else
      [
        ("cyclic-gemm", simperf_gemm ~n:256 ~grid:4 ~chunks:64, 1);
        ("cyclic-ttv", simperf_cyclic_ttv ~i:8192 ~jk:512 ~procs:16 ~vprocs:2048, 3);
        ( "ttv",
          (Result.get_ok
             (H.ttv ~i:8192 ~j:512 ~k:512
                ~machine:(Machine.grid ~kind:Machine.Cpu ~mem_per_proc:256e9 [| 16 |])))
            .H.plan,
          3 );
      ]
  in
  let table =
    Distal_support.Table.create
      ~header:[ "workload"; "wall/run"; "frag/msg"; "tasks/s"; "copy groups/s" ]
  in
  let comparisons =
    Distal_support.Table.create
      ~header:[ "comparison"; "measured"; "baseline"; "ratio"; "note" ]
  in
  let metrics = ref [] in
  List.iter
    (fun (name, plan, reps) ->
      let tasks, groups, ratio, wall = simperf_measure plan ~reps in
      let per v = if wall > 0.0 then v /. wall else 0.0 in
      Distal_support.Table.add_row table
        [
          name;
          Printf.sprintf "%.3f ms" (wall *. 1e3);
          Printf.sprintf "%.1f" ratio;
          Printf.sprintf "%.0f" (per tasks);
          Printf.sprintf "%.0f" (per groups);
        ];
      metrics :=
        !metrics
        @ [
            (name ^ ".wall_s", wall, "s");
            (name ^ ".tasks_per_s", per tasks, "tasks/s");
            (name ^ ".copy_groups_per_s", per groups, "groups/s");
            (name ^ ".coalesce_ratio", ratio, "fragments/msg");
          ])
    specs;
  (* The executor's leaf dispatch on real arithmetic (a Full run on one
     domain, so it measures the leaf, not the pool) against the
     [Expr.eval] evaluator ([Exec.serial_reference] over the same
     statement). The staged leaf matches the gemm pattern, so it runs the
     tiled registry kernel. *)
  let leaf_n = if small then 48 else 128 and leaf_grid = 2 in
  let leaf_plan = simperf_leaf ~n:leaf_n ~grid:leaf_grid in
  let leaf_data = Api.random_inputs leaf_plan in
  let leaf_reps = if small then 3 else 5 in
  let leaf_wall =
    best_wall ~reps:leaf_reps (fun () ->
        match Api.run ~domains:1 leaf_plan ~data:leaf_data with
        | Ok _ -> ()
        | Error e -> failwith ("simperf leaf run failed: " ^ e))
  in
  let leaf_generic =
    let p = leaf_plan.Api.problem in
    let shapes = List.map (fun (t : Api.tensor) -> (t.Api.name, t.Api.shape)) p.Api.tensors in
    best_wall ~reps:leaf_reps (fun () ->
        ignore (Api.Exec.serial_reference p.Api.stmt ~shapes ~data:leaf_data))
  in
  let leaf_speedup = if leaf_wall > 0.0 then leaf_generic /. leaf_wall else 0.0 in
  (* The tiled registry gemm against the reference loops ([run_named
     Off]) on one task's leaf operands; [leaf.gflops] reports the
     calibrated gemm rate the cost model prices substituted leaves
     with. *)
  let leaf_kernel mode =
    let t = leaf_n / leaf_grid and rng = Rng.create 7 in
    let ops =
      [ Dense.create [| t; t |]; Dense.random rng [| t; leaf_n |]; Dense.random rng [| leaf_n; t |] ]
    in
    best_wall ~reps:(10 * leaf_reps) (fun () ->
        Api.Kernel_registry.run_named mode ~kernel:"gemm" ops)
  in
  let leaf_native = leaf_kernel Api.Kernel_registry.Tiled in
  let leaf_reference = leaf_kernel Api.Kernel_registry.Off in
  let leaf_native_speedup =
    if leaf_native > 0.0 then leaf_reference /. leaf_native else 0.0
  in
  let leaf_gflops = Distal_machine.Calibrate.kernel_rate "gemm" /. 1e9 in
  Distal_support.Table.add_row comparisons
    [
      "leaf (executor vs Expr.eval)";
      Printf.sprintf "%.3f ms" (leaf_wall *. 1e3);
      Printf.sprintf "%.3f ms" (leaf_generic *. 1e3);
      Printf.sprintf "%.1fx" leaf_speedup;
      "-";
    ];
  Distal_support.Table.add_row comparisons
    [
      "leaf kernel (tiled vs off)";
      Printf.sprintf "%.3f ms" (leaf_native *. 1e3);
      Printf.sprintf "%.3f ms" (leaf_reference *. 1e3);
      Printf.sprintf "%.1fx" leaf_native_speedup;
      Printf.sprintf "calibrated %.2f GF/s" leaf_gflops;
    ];
  metrics :=
    !metrics
    @ [
        ("leaf.wall_s", leaf_wall, "s");
        ("leaf.unstaged_wall_s", leaf_generic, "s");
        ("leaf.stage_speedup", leaf_speedup, "x");
        ("leaf.native_wall_s", leaf_native, "s");
        ("leaf.native_speedup", leaf_native_speedup, "x");
        ("leaf.gflops", leaf_gflops, "GF/s");
      ];
  (* Resilience (lib/fault), on simulated time so the row is
     config-independent: an empty fault plan with checkpointing off must
     charge exactly zero extra simulated seconds (validate_bench gates
     [fault.nocheckpoint_overhead] on literal 0.0 — the fault machinery
     may not perturb fault-free runs), while a mid-run kill with
     checkpointing prices one detect + restore + replay episode whose
     slowdown factor is the reported recovery overhead. *)
  let fplan = simperf_gemm ~n:64 ~grid:4 ~chunks:8 in
  let base_stats = Api.estimate fplan in
  let empty_stats =
    match
      Api.run ~mode:Api.Exec.Model ~faults:(Api.Fault.plan ()) fplan ~data:[]
    with
    | Ok r -> r.Api.Exec.stats
    | Error e -> failwith ("simperf fault run failed: " ^ e)
  in
  let nocheckpoint_overhead =
    empty_stats.Api.Stats.time -. base_stats.Api.Stats.time
  in
  let faults =
    Api.Fault.plan ~checkpoint:true
      ~kills:[ Api.Fault.kill ~proc:1 ~step:4 () ]
      ()
  in
  let _, faulted_stats, _ = Api.resilience_exn ~faults fplan in
  let recovery_overhead =
    if base_stats.Api.Stats.time > 0.0 then
      faulted_stats.Api.Stats.time /. base_stats.Api.Stats.time
    else 0.0
  in
  Distal_support.Table.add_row comparisons
    [
      "fault (kill+ckpt vs clean)";
      Printf.sprintf "%.3f ms" (faulted_stats.Api.Stats.time *. 1e3);
      Printf.sprintf "%.3f ms" (base_stats.Api.Stats.time *. 1e3);
      Printf.sprintf "%.1fx" recovery_overhead;
      "modeled time";
    ];
  metrics :=
    !metrics
    @ [
        ("fault.nocheckpoint_overhead", nocheckpoint_overhead, "s");
        ("fault.recovery_overhead", recovery_overhead, "x");
      ];
  (* The auto-scheduler (lib/algorithms/auto): cold search wall time,
     pruning/memoization counters, byte-identity of the chosen ranking
     across pool sizes, and the match-or-beat gate against the harness's
     hand schedules. [auto.candidates_pruned] (> 0), [auto.pool_identical]
     (= 1) and [auto.vs_hand_min_ratio] (>= 1) are gated by
     validate_bench; [auto.search_wall_s] joins the baseline guard. *)
  let module Auto = Distal_algorithms.Auto in
  let module Auto_compare = Distal_harness.Auto_compare in
  let auto_n, auto_procs = if small then (512, 8) else (8192, 16) in
  let machine_of grid = Machine.grid ~kind:Machine.Cpu ~mem_per_proc:256e9 grid in
  let auto_stmt = "A(i,j) = B(i,k) * C(k,j)" in
  let auto_shapes =
    [ ("A", [| auto_n; auto_n |]); ("B", [| auto_n; auto_n |]); ("C", [| auto_n; auto_n |]) ]
  in
  let auto_search ~domains () =
    match
      Auto.search_report ~domains ~machine_of ~procs:auto_procs ~stmt:auto_stmt
        ~shapes:auto_shapes ()
    with
    | Ok r -> r
    | Error e -> failwith ("simperf auto search failed: " ^ e)
  in
  Auto.clear_cache ();
  let cold_cs, cold = auto_search ~domains:1 () in
  let warm_cs, warm = auto_search ~domains:3 () in
  let rendering (cs, (r : Auto.report)) =
    ( List.map Auto.describe cs,
      (r.Auto.enumerated, r.Auto.deduped, r.Auto.pruned, r.Auto.probed) )
  in
  let pool_identical =
    if rendering (cold_cs, cold) = rendering (warm_cs, warm) then 1.0 else 0.0
  in
  let memo_speedup =
    if warm.Auto.wall_s > 0.0 then cold.Auto.wall_s /. warm.Auto.wall_s else 0.0
  in
  let vs_hand =
    let rows =
      if small then Auto_compare.rows ~procs:4 ~n:256 ~jk:64 ~i1:128 ()
      else Auto_compare.rows ~procs:16 ~n:4096 ~jk:256 ~i1:1024 ()
    in
    Auto_compare.min_ratio rows
  in
  Distal_support.Table.add_row comparisons
    [
      "auto (cold vs memoized)";
      Printf.sprintf "%.3f ms" (cold.Auto.wall_s *. 1e3);
      Printf.sprintf "%.3f ms" (warm.Auto.wall_s *. 1e3);
      Printf.sprintf "%.1fx" memo_speedup;
      "-";
    ];
  metrics :=
    !metrics
    @ [
        ("auto.search_wall_s", cold.Auto.wall_s, "s");
        ("auto.candidates_enumerated", float_of_int cold.Auto.enumerated, "candidates");
        ( "auto.candidates_pruned",
          float_of_int (cold.Auto.deduped + cold.Auto.pruned),
          "candidates" );
        ("auto.candidates_probed", float_of_int cold.Auto.probed, "candidates");
        ("auto.memo_hits", float_of_int warm.Auto.memo_hits, "probes");
        ("auto.memo_speedup", memo_speedup, "x");
        ("auto.pool_identical", pool_identical, "bool");
        ("auto.vs_hand_min_ratio", vs_hand, "x");
      ];
  (* Compiled executable plans (Exec.plan / Exec.run_plan): a cold Full
     run ([Exec.execute], which plans then replays once) against a warm
     run replaying the compiled plan with pooled buffers, on the cyclic
     GEMM. The speedup is gated >= 1.0 by validate_bench — reusing a plan
     must never lose to replanning. The alloc rows report the OCaml-heap
     words each path allocates per run (Gc deltas; bigarray payloads are
     off-heap): the warm path's near-zero column is the "no per-fragment
     allocation on the data path" contract in numbers.
     [cyclic-gemm.parallel_efficiency] is informational: (t1/t4)/4 of
     the warm path under 4 host domains — near 0.25 on a single-core
     container, climbing toward 1 with real cores. *)
  let rp_plan =
    if small then simperf_gemm ~n:64 ~grid:4 ~chunks:8
    else simperf_gemm ~n:128 ~grid:4 ~chunks:16
  in
  let rp_data = Api.random_inputs rp_plan in
  let rp_reps = if small then 3 else 5 in
  let rp_spec = Api.spec rp_plan in
  let replan () =
    match Api.Exec.execute ~domains:1 rp_spec ~data:rp_data with
    | Ok _ -> ()
    | Error e -> failwith ("simperf replan run failed: " ^ e)
  in
  let ep = Api.eplan_exn rp_plan in
  let reuse ~domains () =
    match Api.Exec.run_plan ~domains ep ~data:rp_data with
    | Ok _ -> ()
    | Error e -> failwith ("simperf reuse run failed: " ^ e)
  in
  let alloc_words f =
    (* Gc.minor_words reads the live allocation pointer (quick_stat's
       copy only advances at minor collections); major words stay on
       quick_stat. *)
    let m0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    f ();
    let g1 = Gc.quick_stat () in
    Gc.minor_words () -. m0 +. (g1.Gc.major_words -. g0.Gc.major_words)
  in
  let replan_wall = best_wall ~reps:rp_reps replan in
  let reuse_wall = best_wall ~reps:rp_reps (reuse ~domains:1) in
  let reuse_wall_d4 = best_wall ~reps:rp_reps (reuse ~domains:4) in
  let plan_reuse_speedup = if reuse_wall > 0.0 then replan_wall /. reuse_wall else 0.0 in
  let parallel_efficiency =
    if reuse_wall_d4 > 0.0 then reuse_wall /. reuse_wall_d4 /. 4.0 else 0.0
  in
  let replan_alloc = alloc_words replan in
  let reuse_alloc = alloc_words (reuse ~domains:1) in
  Distal_support.Table.add_row comparisons
    [
      "plan reuse (warm vs replan)";
      Printf.sprintf "%.3f ms" (reuse_wall *. 1e3);
      Printf.sprintf "%.3f ms" (replan_wall *. 1e3);
      Printf.sprintf "%.1fx" plan_reuse_speedup;
      Printf.sprintf "%.3f ms at 4 domains, %.2f/%.2f Mw" (reuse_wall_d4 *. 1e3)
        (reuse_alloc /. 1e6) (replan_alloc /. 1e6);
    ];
  metrics :=
    !metrics
    @ [
        ("exec.plan_reuse_speedup", plan_reuse_speedup, "x");
        ("exec.replan_alloc_mwords", replan_alloc /. 1e6, "Mwords");
        ("exec.reuse_alloc_mwords", reuse_alloc /. 1e6, "Mwords");
        ("cyclic-gemm.parallel_efficiency", parallel_efficiency, "ratio");
      ];
  Distal_support.Table.print table;
  Distal_support.Table.print comparisons;
  let json =
    Json.Obj
      [
        ("schema", Json.String "distal-bench/v1");
        ("id", Json.String "simperf");
        ( "metrics",
          Json.List
            (List.map
               (fun (name, value, unit_) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ( "value",
                       if Float.is_finite value then Json.Float value else Json.Null );
                     ("unit", Json.String unit_);
                   ])
               !metrics) );
      ]
  in
  let file = "BENCH_simperf.json" in
  let oc = open_out file in
  output_string oc (Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n\n" file

let simperf () = simperf_run ~small:false ()
let simperf_small () = simperf_run ~small:true ()

(* {2 serve: compile-and-serve throughput (lib/serve)}

   Measures the serving session's three tiers on the cyclic GEMM, real
   wall clock: cold (caching off — every request parses, typechecks,
   schedules, lowers and runs), plan-cached (compile amortized, every
   request still executes) and hot (plan + result cache — repeated
   identical requests replay the finished run). The headline ratio
   serve.hot_cache_speedup is gated by validate_bench: a hot request
   must be at least 5x a cold one, or the serving layer has stopped
   paying for itself. *)

module Serve_session = Distal_serve.Session

let serve_request ~n ~grid ~chunks =
  Api.request
    ~machine:(Machine.grid [| grid; grid |])
    ~stmt:"A(i,j) = B(i,k) * C(k,j)"
    ~tensors:
      [
        Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]";
        Api.tensor "B" [| n; n |] ~dist:"[x,y] -> [x%1,y%1]";
        Api.tensor "C" [| n; n |] ~dist:"[x,y] -> [x%1,y%1]";
      ]
    ~schedule:
      (Printf.sprintf
         "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d]); split(k, ko, ki, %d);\n\
          reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"
         grid grid chunks)
    ()

(* Best-of wall clock per served request: identical requests against one
   session, so whatever tier the session's caches put it on is what gets
   timed. *)
let serve_measure session req ~reps =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    ignore (Serve_session.run_exn ~mode:Api.Exec.Full ~seed:42 session req);
    let w = now () -. t0 in
    if w < !best then best := w
  done;
  !best

let serve_run ~small () =
  Printf.printf "== serve: compile-and-serve throughput (real wall clock%s) ==\n"
    (if small then ", small config" else "");
  let req =
    if small then serve_request ~n:64 ~grid:4 ~chunks:8
    else serve_request ~n:128 ~grid:4 ~chunks:16
  in
  let cold_reps = 3 in
  let hot_reps = if small then 200 else 1000 in
  (* Cold: caching disabled, so every request is the full pipeline. *)
  let cold_session = Serve_session.create ~plan_cache:0 () in
  let cold = serve_measure cold_session req ~reps:cold_reps in
  (* Plan tier only: compile amortized, execution still happens. *)
  let plan_session = Serve_session.create ~plan_cache:128 ~result_cache:0 () in
  ignore (serve_measure plan_session req ~reps:1) (* warm the plan cache *);
  let plan_only = serve_measure plan_session req ~reps:cold_reps in
  (* Hot: both tiers; after one warming request everything replays. *)
  let hot_session = Serve_session.create () in
  ignore (serve_measure hot_session req ~reps:1);
  let hot = serve_measure hot_session req ~reps:hot_reps in
  let c = Serve_session.counters hot_session in
  if c.Serve_session.result_hits < hot_reps then
    failwith "serve bench: hot requests missed the result cache";
  let per w = if w > 0.0 then 1.0 /. w else 0.0 in
  let hot_speedup = if hot > 0.0 then cold /. hot else 0.0 in
  let plan_speedup = if plan_only > 0.0 then cold /. plan_only else 0.0 in
  let table =
    Distal_support.Table.create ~header:[ "tier"; "wall/req"; "reqs/s"; "vs cold" ]
  in
  List.iter
    (fun (tier, wall, speedup) ->
      Distal_support.Table.add_row table
        [
          tier;
          Printf.sprintf "%.3f ms" (wall *. 1e3);
          Printf.sprintf "%.0f" (per wall);
          (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-");
        ])
    [
      ("cold (no cache)", cold, None);
      ("plan cache", plan_only, Some plan_speedup);
      ("hot (plan+result)", hot, Some hot_speedup);
    ];
  Distal_support.Table.print table;
  let json =
    Json.Obj
      [
        ("schema", Json.String "distal-bench/v1");
        ("id", Json.String "serve");
        ( "metrics",
          Json.List
            (List.map
               (fun (name, value, unit_) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ( "value",
                       if Float.is_finite value then Json.Float value else Json.Null );
                     ("unit", Json.String unit_);
                   ])
               [
                 ("serve.cold_reqs_per_s", per cold, "req/s");
                 ("serve.plan_cache_reqs_per_s", per plan_only, "req/s");
                 ("serve.reqs_per_s", per hot, "req/s");
                 ("serve.plan_cache_speedup", plan_speedup, "x");
                 ("serve.hot_cache_speedup", hot_speedup, "x");
               ]) );
      ]
  in
  let file = "BENCH_serve.json" in
  let oc = open_out file in
  output_string oc (Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n\n" file

let serve_bench () = serve_run ~small:false ()
let serve_bench_small () = serve_run ~small:true ()

(* {2 Ablations: the design choices DESIGN.md calls out} *)

let ablation () =
  print_endline "== ablation: scheduling choices for GEMM on 256 GPUs (64 nodes) ==";
  let module M = Distal_algorithms.Matmul in
  let n = Fig15.weak_n ~base:20000 ~nodes:64 in
  let machine = Machine.with_ppn ~kind:Machine.Gpu ~mem_per_proc:16e9 [| 16; 16 |] ~ppn:4 in
  let table =
    Distal_support.Table.create ~header:[ "variant"; "time (s)"; "GB moved"; "note" ]
  in
  let add name (alg : (M.t, string) result) note =
    match alg with
    | Error e -> Distal_support.Table.add_row table [ name; "-"; "-"; e ]
    | Ok alg ->
        let s = Api.estimate alg.M.plan in
        Distal_support.Table.add_row table
          [
            name;
            Printf.sprintf "%.3f" s.Api.Stats.time;
            Printf.sprintf "%.1f"
              ((s.Api.Stats.bytes_inter +. s.Api.Stats.bytes_intra) /. 1e9);
            note;
          ]
  in
  add "summa (broadcasts)" (M.summa ~n ~machine ()) "baseline";
  add "cannon (rotate)" (M.cannon ~n ~machine) "systolic: no broadcasts";
  add "pumma (1 rotate)" (M.pumma ~n ~machine) "hybrid";
  add "summa chunk=tile" (M.summa ~chunks_per_tile:1 ~n ~machine ()) "coarse communicate";
  add "summa chunk=tile/16" (M.summa ~chunks_per_tile:16 ~n ~machine ())
    "fine communicate: more msgs, less memory";
  Distal_support.Table.print table;
  print_newline ()

(* Figure 9 itself: the six algorithms as (machine, distribution,
   schedule) triples, each validated against the serial reference. *)
let fig9 () =
  print_endline "== fig9: matrix-multiplication algorithms expressible in DISTAL ==";
  let module M = Distal_algorithms.Matmul in
  let n = 24 in
  let m2 = Machine.grid [| 2; 2 |] in
  let m3 = Machine.grid [| 2; 2; 2 |] in
  let table =
    Distal_support.Table.create
      ~header:[ "algorithm"; "year"; "machine"; "data distribution"; "validated" ]
  in
  List.iter
    (fun alg ->
      match alg with
      | Error e -> Distal_support.Table.add_row table [ "?"; "?"; "?"; e; "-" ]
      | Ok (a : M.t) ->
          Distal_support.Table.add_row table
            [
              a.M.name;
              string_of_int a.M.year;
              Machine.to_string a.M.plan.Api.problem.Api.machine;
              String.concat "  " (List.map (fun (t, d) -> t ^ d) a.M.dists);
              (match Api.validate a.M.plan with Ok () -> "OK" | Error _ -> "FAIL");
            ])
    [
      M.cannon ~n ~machine:m2;
      M.pumma ~n ~machine:m2;
      M.summa ~n ~machine:m2 ();
      M.johnson ~n ~machine:m3 ();
      M.solomonik ~n ~machine:m3;
      M.cosma ~n ~machine:m3;
    ];
  Distal_support.Table.print table;
  print_endline "(schedules printed by examples/algorithms_tour.exe)";
  print_newline ()

(* The auto-scheduler (§9) against the hand schedules of Fig. 9 / §7.2. *)
let auto () =
  print_endline "== auto: automatic schedule/format selection vs hand schedules ==";
  let module Auto = Distal_algorithms.Auto in
  let module M = Distal_algorithms.Matmul in
  let module Cost = Distal_machine.Cost_model in
  let n = 8192 in
  let procs = 16 in
  let machine_of grid = Machine.grid ~kind:Machine.Cpu ~mem_per_proc:256e9 grid in
  let shapes = [ ("A", [| n; n |]); ("B", [| n; n |]); ("C", [| n; n |]) ] in
  (match
     Auto.search_report ~machine_of ~procs ~stmt:"A(i,j) = B(i,k) * C(k,j)" ~shapes ()
   with
  | Error e -> Printf.printf "search failed: %s\n" e
  | Ok (cs, report) ->
      Printf.printf "GEMM n=%d on %d CPUs: %s\n" n procs (Auto.describe_report report);
      List.iteri
        (fun i c -> if i < 3 then Printf.printf "  %d. %s\n" (i + 1) (Auto.describe c))
        cs;
      let summa =
        Result.get_ok (M.summa ~n ~machine:(machine_of [| 4; 4 |]) ())
      in
      let ts = (Api.estimate ~cost:Cost.cpu_distal summa.M.plan).Api.Stats.time in
      Printf.printf "  hand-written SUMMA on [4,4]: %.3g s\n" ts);
  (match
     Auto.best ~machine_of ~procs ~stmt:"A(i,j) = B(i,j,k) * c(k)"
       ~shapes:[ ("A", [| 4096; 512 |]); ("B", [| 4096; 512; 512 |]); ("c", [| 512 |]) ]
       ()
   with
  | Error e -> Printf.printf "search failed: %s\n" e
  | Ok best ->
      Printf.printf "TTV on %d CPUs: auto picks %s\n" procs (Auto.describe best));
  let hits, misses, evictions = Auto.cache_stats () in
  Printf.printf "probe cache: %d hits, %d misses, %d evictions; pack_overhead %.3g ns\n"
    hits misses evictions
    (Distal_machine.Calibrate.pack_overhead () *. 1e9);
  print_newline ();
  print_endline "-- auto vs hand schedules (modeled time, same cost model) --";
  Distal_harness.Auto_compare.print
    (Distal_harness.Auto_compare.rows ~procs:16 ~n:4096 ~jk:256 ~i1:1024 ());
  print_newline ()

(* {2 The profile subcommand} *)

(* Run every Fig. 9 algorithm (Model mode) under one profile, so all six
   appear as separate processes in the exported trace. *)
let profile_fig9 profile =
  let module M = Distal_algorithms.Matmul in
  let n = 24 in
  let m2 = Machine.grid [| 2; 2 |] in
  let m3 = Machine.grid [| 2; 2; 2 |] in
  List.iter
    (fun alg ->
      match alg with
      | Error e -> Printf.printf "  skipped: %s\n" e
      | Ok (a : M.t) -> (
          Profile.set_next_run_name profile ("fig9/" ^ a.M.name);
          match Api.run ~mode:Api.Exec.Model ~profile a.M.plan ~data:[] with
          | Ok _ -> ()
          | Error e -> Printf.printf "  %s failed: %s\n" a.M.name e))
    [
      M.cannon ~n ~machine:m2;
      M.pumma ~n ~machine:m2;
      M.summa ~n ~machine:m2 ();
      M.johnson ~n ~machine:m3 ();
      M.solomonik ~n ~machine:m3;
      M.cosma ~n ~machine:m3;
    ]

let profile_targets profile =
  [
    ("fig9", fun () -> profile_fig9 profile);
    ("fig15a", fun () -> ignore (Fig15.cpu ~profile ~nodes:[ 1; 2; 4; 8 ] ~base_n:64 ()));
    ("fig15b", fun () -> ignore (Fig15.gpu ~profile ~nodes:[ 1; 2; 4 ] ~base_n:64 ()));
    ("fig16a", fun () -> ignore (Fig16.ttv ~profile ~nodes:[ 1; 2; 4 ] ~base_i:64 ~jk:32 ()));
    ( "fig16b",
      fun () -> ignore (Fig16.innerprod ~profile ~nodes:[ 1; 2; 4 ] ~base_i:64 ~jk:32 ()) );
    ( "fig16c",
      fun () -> ignore (Fig16.ttm ~profile ~nodes:[ 1; 2; 4 ] ~base_i:32 ~jk:32 ~l:16 ()) );
    ( "fig16d",
      fun () -> ignore (Fig16.mttkrp ~profile ~nodes:[ 1; 2; 4 ] ~base_ij:32 ~k:32 ~l:8 ()) );
  ]

(* The invariant the subsystem is built around: replaying the exported
   step timeline through the critical-path analysis reproduces the
   simulator's total time exactly, for every run. *)
let check_critical_paths profile =
  let failures = ref 0 in
  List.iter
    (fun (run : Profile.run) ->
      match run.Profile.timeline with
      | None -> Printf.printf "  %-24s (no execution timeline)\n" run.Profile.name
      | Some tl ->
          let cp = Cp.analyse tl in
          let time =
            match Metrics.value run.Profile.metrics "exec.time" with
            | Some t -> t
            | None -> nan
          in
          let ok = cp.Cp.end_time = time in
          if not ok then incr failures;
          Printf.printf "  %-24s critical path %.9e s  simulator %.9e s  %s\n"
            run.Profile.name cp.Cp.end_time time
            (if ok then "ok" else "MISMATCH"))
    (Profile.runs profile);
  !failures

let profile_cmd args =
  let rec parse target out = function
    | [] -> (target, out)
    | "-o" :: file :: rest -> parse target file rest
    | t :: rest -> parse t out rest
  in
  let target, out = parse "fig9" "profile.json" args in
  let profile = Profile.create () in
  (match List.assoc_opt target (profile_targets profile) with
  | Some f ->
      Printf.printf "== profile: %s under the observability subsystem ==\n" target;
      f ()
  | None ->
      Printf.eprintf "unknown profile target %s (known: %s)\n" target
        (String.concat ", " (List.map fst (profile_targets profile)));
      exit 1);
  List.iter
    (fun (run : Profile.run) ->
      if run.Profile.timeline <> None then print_string (Report.run_report run))
    (Profile.runs profile);
  print_endline "critical path vs simulator:";
  let failures = check_critical_paths profile in
  let trace = Chrome_trace.of_profile profile in
  (match Json.parse trace with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "exported trace is not valid JSON: %s\n" e;
      exit 1);
  let oc = open_out out in
  output_string oc trace;
  close_out oc;
  Printf.printf "wrote %s (%d events; load it at https://ui.perfetto.dev)\n" out
    (List.length (Profile.events profile));
  if failures > 0 then (
    Printf.eprintf "%d run(s) with critical-path mismatch\n" failures;
    exit 1)

let sections =
  [
    ("leaf", leaf_benches);
    ("compile", compile_benches);
    ("fig9", fig9);
    ("fig15a", fig15a);
    ("fig15b", fig15b);
    ("fig16a", fig16a);
    ("fig16b", fig16b);
    ("fig16c", fig16c);
    ("fig16d", fig16d);
    ("headline", headline);
    ("simperf", simperf);
    ("simperf-small", simperf_small);
    ("serve", serve_bench);
    ("serve-small", serve_bench_small);
    ("ablation", ablation);
    ("auto", auto);
    ("strong", strong);
    ("csv", csv);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: "profile" :: rest ->
        profile_cmd rest;
        []
    | _ :: (_ :: _ as args) -> args
    | _ ->
        List.filter
          (fun s -> s <> "csv" && s <> "simperf-small" && s <> "serve-small")
          (List.map fst sections)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %s (known: %s)\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested
