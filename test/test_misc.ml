(* Odds and ends: statistics arithmetic, schedule-application purity, and
   API conveniences. *)

module Api = Distal.Api
module Stats = Api.Stats
module S = Api.Schedule
module Cin = Distal_ir.Cin
module P = Distal_ir.Einsum_parser

let test_stats_arithmetic () =
  let a = Stats.create () and b = Stats.create () in
  a.Stats.time <- 2.0;
  a.Stats.flops <- 4e9;
  a.Stats.peak_mem <- 10.0;
  a.Stats.messages <- 3;
  b.Stats.time <- 1.0;
  b.Stats.peak_mem <- 20.0;
  b.Stats.oom <- true;
  let c = Stats.add a b in
  Alcotest.(check (float 0.0)) "times add" 3.0 c.Stats.time;
  Alcotest.(check (float 0.0)) "peak maxes" 20.0 c.Stats.peak_mem;
  Alcotest.(check bool) "oom sticky" true c.Stats.oom;
  Alcotest.(check int) "messages add" 3 c.Stats.messages;
  Alcotest.(check (float 1e-9)) "gflops" 2.0 (Stats.gflops a);
  Alcotest.(check (float 1e-9)) "gbs" 5.0 (Stats.gbs a ~bytes:10e9);
  Alcotest.(check (float 0.0)) "gflops of zero time" 0.0 (Stats.gflops (Stats.create ()));
  Alcotest.(check bool) "to_string mentions OOM" true
    (Astring_contains.contains (Stats.to_string c) "OOM")

(* Schedule application is pure: a failing command must not mutate the
   input CIN (the provenance graph is copied before mutation). *)
let test_schedule_purity_on_failure () =
  let shapes = [ ("A", [| 8; 8 |]); ("B", [| 8; 8 |]); ("C", [| 8; 8 |]) ] in
  let cin =
    Result.get_ok (Cin.of_stmt (P.parse_exn "A(i,j) = B(i,k) * C(k,j)") ~shapes)
  in
  let before = Cin.to_string cin in
  (* divide succeeds then a later command fails: the original cin must be
     unchanged and still schedulable. *)
  (match S.apply_all cin [ S.Divide ("i", "io", "ii", 2); S.Reorder [ "io"; "nope" ] ] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  Alcotest.(check string) "cin unchanged" before (Cin.to_string cin);
  match S.apply_all cin [ S.Divide ("i", "io", "ii", 2) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "original cin unusable after failed schedule: %s" e

let test_default_cost_by_kind () =
  let cpu = Api.Machine.grid [| 2 |] in
  let gpu = Api.Machine.grid ~kind:Api.Machine.Gpu [| 2 |] in
  Alcotest.(check string) "cpu" "cpu-distal" (Api.default_cost cpu).Api.Cost_model.name;
  Alcotest.(check string) "gpu" "gpu-distal" (Api.default_cost gpu).Api.Cost_model.name

let test_random_inputs_deterministic () =
  let machine = Api.Machine.grid [| 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i) = B(i)"
      ~tensors:
        [
          Api.tensor "A" [| 6 |] ~dist:"[x] -> [x]";
          Api.tensor "B" [| 6 |] ~dist:"[x] -> [x]";
        ]
      ()
  in
  let plan = Api.compile_script_exn p ~schedule:"" in
  let d1 = Api.random_inputs ~seed:7 plan and d2 = Api.random_inputs ~seed:7 plan in
  Alcotest.(check bool) "same seed, same data" true
    (Api.Dense.approx_equal (List.assoc "B" d1) (List.assoc "B" d2));
  (* '=' statements do not get output data. *)
  Alcotest.(check bool) "no output in inputs" false (List.mem_assoc "A" d1)

(* The whole simulation is deterministic: identical inputs give identical
   results and identical statistics, run to run. *)
let test_simulation_deterministic () =
  let machine = Api.Machine.grid [| 2; 2 |] in
  let plan () =
    let p =
      Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
        ~tensors:
          [
            Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
            Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [x%2,y]";
            Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
          ]
        ()
    in
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 4);\n\
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);\n\
         substitute({ii,ji,ki}, gemm)"
  in
  let run () =
    let p = plan () in
    let r = Api.run_exn p ~data:(Api.random_inputs ~seed:5 p) in
    (Option.get r.Api.Exec.output, r.Api.Exec.stats)
  in
  let o1, s1 = run () and o2, s2 = run () in
  Alcotest.(check bool) "same values" true (Api.Dense.approx_equal ~tol:0.0 o1 o2);
  Alcotest.(check (float 0.0)) "same time" s1.Stats.time s2.Stats.time;
  Alcotest.(check int) "same messages" s1.Stats.messages s2.Stats.messages

let test_ident_fresh () =
  let a = Distal_ir.Ident.fresh "k" in
  let b = Distal_ir.Ident.fresh "k" in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "derived from base" true (Astring_contains.contains a "k'")

(* [Auto] compiles candidates on pool lanes, so names are drawn from
   several domains at once; none may repeat. *)
let test_ident_fresh_domains () =
  let draw () = List.init 10_000 (fun _ -> Distal_ir.Ident.fresh "x") in
  let d = Domain.spawn draw in
  let mine = draw () in
  let names = Domain.join d @ mine in
  Alcotest.(check int) "distinct names" 20_000 (List.length (List.sort_uniq compare names))

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "stats arithmetic" `Quick test_stats_arithmetic;
        Alcotest.test_case "schedule purity" `Quick test_schedule_purity_on_failure;
        Alcotest.test_case "default cost" `Quick test_default_cost_by_kind;
        Alcotest.test_case "random inputs" `Quick test_random_inputs_deterministic;
        Alcotest.test_case "deterministic simulation" `Quick test_simulation_deterministic;
        Alcotest.test_case "fresh idents" `Quick test_ident_fresh;
        Alcotest.test_case "fresh idents across domains" `Quick test_ident_fresh_domains;
      ] );
  ]
