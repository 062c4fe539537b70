(* Host-side gauges of a simulation: the per-phase wall clocks (resolve,
   walk and price, with step planning inside price) and the allocation
   counts. They describe the host, never the modeled run, so
   they must not move [Stats], and a fixed Model run must stay within a
   word budget. *)

module Api = Distal.Api
module Exec = Api.Exec
module Stats = Api.Stats
module Profile = Distal_obs.Profile
module Metrics = Distal_obs.Metrics
module M = Distal_algorithms.Matmul

let summa ~n ~g =
  match M.summa ~n ~machine:(Api.Machine.grid [| g; g |]) () with
  | Ok a -> a.M.plan
  | Error e -> Alcotest.fail e

(* One profiled Model run: its stats and its metrics registry. *)
let profiled plan =
  let profile = Profile.create () in
  let r = Api.run_exn ~mode:Exec.Model ~profile plan ~data:[] in
  match Profile.runs profile with
  | [ run ] -> (r.Exec.stats, run.Profile.metrics)
  | _ -> Alcotest.fail "expected exactly one profiled run"

let gauge reg name =
  match Metrics.value reg name with
  | Some v -> v
  | None -> Alcotest.failf "gauge %s missing" name

let stats_bits (s : Stats.t) =
  List.map Int64.bits_of_float [ s.time; s.flops; s.bytes_intra; s.bytes_inter; s.peak_mem ]
  @ List.map Int64.of_int [ s.messages; s.tasks; s.steps; Bool.to_int s.oom ]

let test_phase_gauges () =
  let plan = summa ~n:64 ~g:4 in
  let with_profile, reg = profiled plan in
  List.iter
    (fun name ->
      let v = gauge reg name in
      if not (v >= 0.0) then Alcotest.failf "%s = %g" name v)
    [
      "exec.setup_wall_s";
      "exec.compute_wall_s";
      "exec.assembly_wall_s";
      "exec.plan_wall_s";
    ];
  if gauge reg "exec.plan_wall_s" > gauge reg "exec.assembly_wall_s" then
    Alcotest.fail "planning is part of pricing";
  let without = (Api.run_exn ~mode:Exec.Model plan ~data:[]).Exec.stats in
  Alcotest.(check (list int64))
    "stats with and without a profile" (stats_bits without) (stats_bits with_profile)

(* SUMMA n=256 on 8x8, Model mode, with a profile. Before the
   slot-indexed task walk this run allocated 2,441,472 minor words; the
   walk brought it to 1,431,240, applying effects without a tape to
   1,412,160, and folding fetches into per-step message tables instead of
   raw batch records to 1,262,934 (1,246,250 before the next change).
   Flat walk memos and list-free step grouping took it to 1,159,415. The
   budget is that plus 20%. *)
let model_words plan =
  ignore (profiled plan);
  (* The least of three runs, as in [Test_kernels.words_of]. *)
  List.fold_left Float.min infinity
    (List.init 3 (fun _ -> gauge (snd (profiled plan)) "exec.alloc_minor_words"))

let test_alloc_budget () =
  let words = model_words (summa ~n:256 ~g:8) in
  if words > 1_391_298.0 then Alcotest.failf "allocated %.0f minor words" words

(* SUMMA n=256 on 16x16, Model mode, without a profile: the simulation
   itself, which the profiled budgets above hide under [emit]'s events.
   The hash-keyed walk memos and per-message grouping tuples allocated
   1,829,082 minor words here; flat memos and list-free grouping
   1,119,506. The budget is that plus 20%. *)
let test_unprofiled_budget () =
  let plan = summa ~n:256 ~g:16 in
  let words, _ =
    Test_kernels.words_of (fun () -> ignore (Api.run_exn ~mode:Exec.Model plan ~data:[]))
  in
  if words > 1_343_407.0 then Alcotest.failf "allocated %.0f minor words" words

let cannon ~n ~g =
  match M.cannon ~n ~machine:(Api.Machine.grid [| g; g |]) with
  | Ok a -> a.M.plan
  | Error e -> Alcotest.fail e

(* TTV cyclic over i on [procs] processors over-decomposed onto [vprocs],
   as the served benchmark writes it. *)
let cyclic_ttv ~i ~jk ~procs ~vprocs =
  let p =
    Api.problem_exn ~machine:(Api.Machine.grid [| procs |]) ~virtual_grid:[| vprocs |]
      ~stmt:"A(i,j) = B(i,j,k) * c(k)"
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
      (Printf.sprintf "divide(i, io, ii, %d); distribute(io); communicate({A,B,c}, io)" vprocs)

(* The other two families of the served [estimate] sweep, Model mode with
   a profile. Cannon n=256 on 16x16 allocated 2,861,101 minor words and
   cyclic TTV (i=1280, jk=16, 64 processors over 128 virtual) 1,057,884
   before the simulator was split into phases, and 2,796,259 and
   1,035,325 before flat walk memos, list-free grouping and the hoisted
   tile sweep took them to 2,648,931 and 876,620; each budget is that
   plus 20%. *)
let test_family_budgets () =
  List.iter
    (fun (name, plan, budget) ->
      let words = model_words plan in
      if words > budget then Alcotest.failf "%s allocated %.0f minor words" name words)
    [
      ("cannon", cannon ~n:256 ~g:16, 3_178_717.0);
      ("cyclic ttv", cyclic_ttv ~i:1280 ~jk:16 ~procs:64 ~vprocs:128, 1_051_944.0);
    ]

(* Footprints a Model run computes: one per distinct key per site. Cannon
   rotates k by (io + jo), so keying B's and C's sites on the rotated
   value rather than on (io, jo, kos) leaves 256 footprints per tensor;
   keyed by slots, the same run computed 8,448. The site memos are flat
   arrays indexed by key, so a key that lands in another's slot or is
   dropped changes these counts: Johnson's three operands each key two of
   three launch variables (16 tiles each on 4x4x4), and the served TTV
   keys its two cyclic operands on 128 virtual processors and its
   replicated vector on none. *)
let johnson ~n ~g =
  match M.johnson ~n ~machine:(Api.Machine.grid [| g; g; g |]) () with
  | Ok a -> a.M.plan
  | Error e -> Alcotest.fail e

let test_footprints () =
  List.iter
    (fun (name, plan, expected) ->
      Alcotest.(check (float 0.0)) name expected (gauge (snd (profiled plan)) "exec.footprints"))
    [
      ("cannon 16x16", cannon ~n:256 ~g:16, 768.0);
      ("summa 16x16", summa ~n:256 ~g:16, 2304.0);
      ("johnson 4x4x4", johnson ~n:64 ~g:4, 48.0);
      ("cyclic ttv", cyclic_ttv ~i:1280 ~jk:16 ~procs:64 ~vprocs:128, 257.0);
    ]

(* A leaf that cannot be staged: collapsing the local loops leaves a fused
   variable in the nest, so [Exec.run_plan] evaluates it point by point
   with [Expr.eval]. Guards and index points are compiled once per plan;
   compiling them per iteration point allocated 1,489,182 minor words
   here, and the uncompiled walk before the slot-indexed simulator
   443,018. This run allocates 340,254; the budget is that plus 20%. *)
let test_unstaged_leaf_budget () =
  let n = 32 in
  let p =
    Api.problem_exn ~machine:(Api.Machine.grid [| 2; 2 |]) ~stmt:"A(i,j) = B(i,j) + C(i,j)"
      ~tensors:
        (List.map (fun t -> Api.tensor t [| n; n |] ~dist:"[x,y] -> [x,y]") [ "A"; "B"; "C" ])
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:"distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); collapse(ii, ji, f)"
  in
  let data = Api.random_inputs plan in
  let ep = Api.eplan_exn plan in
  let run () = Result.get_ok (Exec.run_plan ~domains:1 ep ~data) in
  let shapes = List.map (fun (t : Api.tensor) -> (t.Api.name, t.Api.shape)) p.Api.tensors in
  let expected = Exec.serial_reference p.Api.stmt ~shapes ~data in
  (match (run ()).Exec.output with
  | Some out when Distal_tensor.Dense.approx_equal ~tol:1e-9 out expected -> ()
  | _ -> Alcotest.fail "unstaged leaf output differs from the serial reference");
  let words, _ = Test_kernels.words_of (fun () -> ignore (run ())) in
  if words > 408_300.0 then Alcotest.failf "allocated %.0f minor words" words

(* Warm Full-mode replays of two of the served benchmark's shapes: SUMMA
   n=128 on 2x2 and TTV over an i-cyclic B (512x32x32) on 4 processors
   over-decomposed onto 128. Replay allocates no float per element, no
   packing panel per leaf and no array per copied row; what is left is
   per task and per instance. Before that, the SUMMA run allocated
   710,513 minor and 557,826 major words and the TTV run 1,821,121 minor
   and 3,975 major; then 2,044 + 7 and 60,359 + 2,440. Binding every
   leaf when the plan is compiled and reading inputs in place removed
   the per-leaf offset, stride and clamp arrays and the input instance
   views: now they allocate 150 + 7 and 2,064 + 7. The budgets are those
   totals plus 20%. *)
let replay_words plan =
  let data = Api.random_inputs ~seed:1 plan in
  let ep = Api.eplan_exn plan in
  let run () = ignore (Result.get_ok (Exec.run_plan ~domains:1 ep ~data)) in
  run ();
  Test_kernels.words_of run

let test_replay_budget () =
  List.iter
    (fun (name, plan, budget) ->
      let minor, major = replay_words plan in
      if minor +. major > budget then
        Alcotest.failf "%s replay allocated %.0f minor + %.0f major words" name minor major)
    [
      ("summa", summa ~n:128 ~g:2, 189.0);
      ("cyclic ttv", cyclic_ttv ~i:512 ~jk:32 ~procs:4 ~vprocs:128, 2_486.0);
    ]

let suites =
  [
    ( "host gauges",
      [
        Alcotest.test_case "phase wall gauges" `Quick test_phase_gauges;
        Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
        Alcotest.test_case "unprofiled allocation budget" `Quick test_unprofiled_budget;
        Alcotest.test_case "estimate family allocation budgets" `Quick test_family_budgets;
        Alcotest.test_case "footprint counts" `Quick test_footprints;
        Alcotest.test_case "unstaged leaf allocation budget" `Quick test_unstaged_leaf_budget;
        Alcotest.test_case "replay allocation budget" `Quick test_replay_budget;
      ] );
  ]
