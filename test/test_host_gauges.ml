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

(* Every budget check prints its exact count, passing or not, and the
   counts are printed again once the run ends, outside the test log, so
   a CI log shows them for every compiler it runs. *)
let counts = ref []

let () =
  at_exit (fun () ->
      if !counts <> [] then begin
        print_endline "Allocation budgets (minor + direct major words):";
        List.iter print_endline (List.rev !counts)
      end)

let check_budget name (minor, major) budget =
  let line =
    Printf.sprintf "  %s: %.0f + %.0f = %.0f, budget %.0f" name minor major (minor +. major) budget
  in
  print_endline line;
  counts := line :: !counts;
  if minor +. major > budget then
    Alcotest.failf "%s allocated %.0f minor + %.0f major words, over %.0f" name minor major budget

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

(* Every budget below is an exact count of minor plus direct major words
   (see [Test_kernels.words_of]; a profiled run reads the simulation's own
   [exec.alloc_minor_words] and [exec.alloc_major_words], which count the
   same way) plus 5%: only OCaml 5.1.1 was at hand, and the margin covers
   what another compiler's standard library may allocate differently.
   Counts before exact counting were the least of three readings of
   [Gc.counters]' minor words, which moves with minor collections rather
   than with allocation, and read low.

   SUMMA n=256 on 8x8 and on 16x16, Model mode, with a profile. Before
   the slot-indexed task walk the 8x8 run allocated 2,441,472 minor
   words; the walk brought it to 1,431,240, applying effects without a
   tape to 1,412,160, and folding fetches into per-step message tables
   instead of raw batch records to 1,262,934 (1,246,250 before the next
   change). Flat walk memos and list-free step grouping took it to
   1,159,415, and the 16x16 run allocated 8,949,772. Both counted the
   profile's events, which the simulation built eagerly. It now keeps
   only the priced record and builds no event: 270,219 and 1,465,178.
   Answering tile queries in closed form instead of building every tile
   and a spatial index: 232,331 and 1,216,810 minor words, or counted
   exactly, 232,333 + 0 and 1,216,812 + 71,816 (minor + direct major).
   Grouping a step's fetches by payload id from per-step int tables, with
   run-wide step state: 150,036 + 5,895 and 752,947 + 145,550. With
   payloads and footprint entries in flat int arrays, a profiled run
   builds its groups' rect lists for the record instead of sharing the
   payloads' (one list per payload), and reads 154,253 + 5,381 and
   774,465 + 141,449: more than before, within the budgets, which only
   tighten. *)
let model_words plan =
  ignore (profiled plan);
  let reg = snd (profiled plan) in
  (gauge reg "exec.alloc_minor_words", gauge reg "exec.alloc_major_words")

let test_alloc_budget () =
  List.iter
    (fun (name, plan, budget) -> check_budget name (model_words plan) budget)
    [
      ("summa 8x8", summa ~n:256 ~g:8, 163_728.0);
      ("summa 16x16", summa ~n:256 ~g:16, 943_422.0);
    ]

(* SUMMA n=256 on 16x16, Model mode, without a profile: the simulation
   alone, without the per-processor slots and wire payloads a profiled
   run keeps in its record, after a first run (which grows per-domain
   working arrays). The hash-keyed walk memos and per-message grouping
   tuples allocated 1,829,082 minor words here; flat memos and list-free
   grouping 1,119,506; closed-form tile queries 987,634 minor and 71,816
   major words, counted exactly. Grouping by payload id from per-step int
   tables, with run-wide step state, moved part of the walk's state to
   the major heap: 359,677 minor and 145,550 major words. Payloads and
   footprint entries in flat int arrays that a warm domain reuses:
   289,291 and 137,352. *)
let test_unprofiled_budget () =
  let plan = summa ~n:256 ~g:16 in
  let run () = ignore (Api.run_exn ~mode:Exec.Model plan ~data:[]) in
  run ();
  check_budget "unprofiled summa 16x16" (Test_kernels.words_of run) 447_976.0

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
   tile sweep took them to 2,648,931 and 876,620. Keeping the priced
   record instead of building the profile's events took them to 694,349
   and 484,186, closed-form tile queries to 610,333 and 296,567 (exactly
   610,335 + 16,416 and 296,569 + 15,368, minor + direct major), and
   grouping by payload id to 334,460 + 35,368 and 280,073 + 23,561.
   Payloads and footprint entries in flat int arrays took TTV to
   209,686 + 21,000; Cannon read 342,066 + 34,341, its groups' rect
   lists now built for the profile's record instead of shared with the
   payloads. *)
let test_family_budgets () =
  List.iter
    (fun (name, plan, budget) -> check_budget name (model_words plan) budget)
    [
      ("cannon", cannon ~n:256 ~g:16, 388_320.0);
      ("cyclic ttv", cyclic_ttv ~i:1280 ~jk:16 ~procs:64 ~vprocs:128, 242_221.0);
    ]

(* One Model run of the served [estimate] workload's cyclic TTV at n=320
   on 8x8 (i=1280, jk=16, 64 processors over 128 virtual), without a
   profile, after a first run (which grows the per-domain arrays the
   run's stores start from). With a payload record, rect lists and a
   hull per payload and a record per footprint entry, it allocated
   278,735 + 23,561 words; with the payloads and entries in flat int
   arrays, 145,352 + 15,877. *)
let test_ttv_budget () =
  let plan = cyclic_ttv ~i:1280 ~jk:16 ~procs:64 ~vprocs:128 in
  let run () = ignore (Api.run_exn ~mode:Exec.Model plan ~data:[]) in
  run ();
  check_budget "unprofiled cyclic ttv 8x8" (Test_kernels.words_of run) 169_291.0

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

(* A collapsed leaf: collapsing the local loops leaves a fused variable
   in the nest, which replay stages as the nest of its two parts. While
   such leaves were evaluated point by point, compiling guards and index
   points per iteration point allocated 1,489,182 minor words here, the
   uncompiled walk before the slot-indexed simulator 443,018 and the
   compiled walk 340,254. Staged, this run read 930 on the old counter;
   counted exactly, it allocated 7,438, and with the loop state of each
   nest call in one array of its own (no closure per level step), 6,677. *)
let test_collapsed_leaf_budget () =
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
  | _ -> Alcotest.fail "collapsed leaf output differs from the serial reference");
  let words, _ = Test_kernels.words_of (fun () -> ignore (run ())) in
  check_budget "collapsed leaf replay" (words, 0.0) 7_011.0

(* Warm Full-mode replays of two of the served benchmark's shapes: SUMMA
   n=128 on 2x2 and TTV over an i-cyclic B (512x32x32) on 4 processors
   over-decomposed onto 128. Replay allocates no float per element, no
   packing panel per leaf and no array per copied row; what is left is
   per task and per instance. Before that, the SUMMA run allocated
   710,513 minor and 557,826 major words and the TTV run 1,821,121 minor
   and 3,975 major; then 2,044 + 7 and 60,359 + 2,440. Binding every
   leaf when the plan is compiled and reading inputs in place removed
   the per-leaf offset, stride and clamp arrays and the input instance
   views: they read 150 + 7 and 2,064 + 7 on the old counter; counted
   exactly, they allocated 1,063 + 7 and 12,035 + 7. Taking every output
   block up front into one buffer table, with no per-lane runner, output
   view or per-point contribution list: 834 + 7 and 9,066 + 7. *)
let replay_words plan =
  let data = Api.random_inputs ~seed:1 plan in
  let ep = Api.eplan_exn plan in
  let run () = ignore (Result.get_ok (Exec.run_plan ~domains:1 ep ~data)) in
  run ();
  Test_kernels.words_of run

let test_replay_budget () =
  List.iter
    (fun (name, plan, budget) -> check_budget (name ^ " replay") (replay_words plan) budget)
    [
      ("summa", summa ~n:128 ~g:2, 884.0);
      ("cyclic ttv", cyclic_ttv ~i:512 ~jk:32 ~procs:4 ~vprocs:128, 9_527.0);
    ]

(* A cold plan of GEMM over per-element cyclic operands (n=64 on 4x4,
   [x%1,y%1], k split by 8): every communicate point gathers per-element
   pieces. While the simulator built every tile, a per-processor tile
   list and a spatial index per distribution, this plan allocated
   1,577,293 minor words; answering tile queries in closed form from the
   distribution's segments, 1,144,880 minor and 8,208 major words,
   counted exactly; with payload ids and per-step int tables, 1,102,450
   and 13,842; recording output slots instead of flush operations,
   1,101,956 and 13,842; payloads and footprint entries in flat int
   arrays, 415,529 and 12,304. *)
let cyclic_gemm () =
  let p =
    Api.problem_exn ~machine:(Api.Machine.grid [| 4; 4 |]) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 64; 64 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 64; 64 |] ~dist:"[x,y] -> [x%1,y%1]";
          Api.tensor "C" [| 64; 64 |] ~dist:"[x,y] -> [x%1,y%1]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [4,4]); split(k, ko, ki, 8); \
       reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"

let test_cyclic_gemm_plan_budget () =
  let spec = Api.spec (cyclic_gemm ()) in
  let plan () = ignore (Result.get_ok (Exec.plan spec)) in
  plan ();
  check_budget "cold cyclic gemm plan" (Test_kernels.words_of plan) 449_225.0

let suites =
  [
    ( "host gauges",
      [
        Alcotest.test_case "phase wall gauges" `Quick test_phase_gauges;
        Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
        Alcotest.test_case "unprofiled allocation budget" `Quick test_unprofiled_budget;
        Alcotest.test_case "estimate family allocation budgets" `Quick test_family_budgets;
        Alcotest.test_case "cyclic TTV allocation budget" `Quick test_ttv_budget;
        Alcotest.test_case "footprint counts" `Quick test_footprints;
        Alcotest.test_case "collapsed leaf allocation budget" `Quick test_collapsed_leaf_budget;
        Alcotest.test_case "replay allocation budget" `Quick test_replay_budget;
        Alcotest.test_case "cyclic GEMM plan allocation budget" `Quick test_cyclic_gemm_plan_budget;
      ] );
  ]
