(* Finer-grained executor behaviours: completion granularity (Fig. 7),
   over-decomposition accounting, combined reduction/accumulate semantics,
   and instance-cache behaviour. *)

module Api = Distal.Api
module Machine = Api.Machine
module Stats = Api.Stats
module Exec = Api.Exec

let running_example schedule =
  let machine = Machine.grid [| 3 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"a(i) = b(j)"
      ~tensors:
        [
          Api.tensor "a" [| 3 |] ~dist:"[x] -> [x]";
          Api.tensor "b" [| 3 |] ~dist:"[x] -> [x]";
        ]
      ()
  in
  Api.compile_script_exn p ~schedule

(* Fig. 7a: the naive completion communicates at every iteration-space
   point — communicate(b, j) puts one single-element copy per (i, j) pair
   where b(j) is remote. *)
let test_naive_completion_fig7a () =
  let plan = running_example "distribute(i); communicate(a, i); communicate(b, j)" in
  (match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e);
  let s = Api.estimate plan in
  (* 3 processors x 2 remote elements each, one message per element. *)
  Alcotest.(check int) "per-point messages" 6 s.Stats.messages;
  Alcotest.(check int) "j is a pipeline step" 3 s.Stats.steps;
  Alcotest.(check (float 0.0)) "one element per message" (6.0 *. 8.0)
    (s.Stats.bytes_inter +. s.Stats.bytes_intra)

(* Fig. 7b: aggregating under i fetches each processor's remote data in one
   message per source. *)
let test_aggregated_completion_fig7b () =
  let plan = running_example "distribute(i); communicate({a,b}, i)" in
  (match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e);
  let s = Api.estimate plan in
  (* Each processor needs b[0,3): two remote single-owner pieces. Same
     volume as 7a, fewer but larger... here pieces are per-owner, so the
     message count matches but each is fetched once rather than per j. *)
  Alcotest.(check int) "aggregated steps" 1 s.Stats.steps;
  Alcotest.(check (float 0.0)) "same volume" (6.0 *. 8.0)
    (s.Stats.bytes_inter +. s.Stats.bytes_intra)

let test_overdecomposition_doubles_work_per_proc () =
  (* The same statement on the same 2 processors, once with a matching
     launch grid and once over-decomposed 4-ways: same results, same
     flops, roughly double the per-step occupancy. *)
  let machine = Machine.grid [| 2 |] in
  let mk grid schedule =
    let p =
      Api.problem_exn ~virtual_grid:grid ~machine ~stmt:"A(i,j) = B(i,j) + C(i,j)"
        ~tensors:
          [
            Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x]";
            Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [x]";
            Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [x]";
          ]
        ()
    in
    Api.compile_script_exn p ~schedule
  in
  let exact = mk [| 2 |] "divide(i, io, ii, 2); distribute(io); communicate({A,B,C}, io)" in
  let over = mk [| 4 |] "divide(i, io, ii, 4); distribute(io); communicate({A,B,C}, io)" in
  (match Api.validate over with Ok () -> () | Error e -> Alcotest.fail e);
  let se = Api.estimate exact and so = Api.estimate over in
  Alcotest.(check (float 1e-6)) "same flops" se.Stats.flops so.Stats.flops;
  Alcotest.(check int) "4 tasks over-decomposed" 4 so.Stats.tasks;
  Alcotest.(check bool) "no extra communication" true
    (so.Stats.bytes_inter +. so.Stats.bytes_intra <= 1e-9)

let test_accumulate_into_reduction () =
  (* '+=' with a distributed reduction variable: partials reduce on top of
     the existing output values. *)
  let machine = Machine.grid [| 3 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"a(i) += B(i,k) * c(k)"
      ~tensors:
        [
          Api.tensor "a" [| 4 |] ~dist:"[x] -> [0]";
          Api.tensor "B" [| 4; 9 |] ~dist:"[x,y] -> [y]";
          Api.tensor "c" [| 9 |] ~dist:"[x] -> [x]";
        ]
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:"divide(k, ko, ki, 3); reorder(ko, i, ki); distribute(ko);\n\
                 communicate({a,B,c}, ko)"
  in
  match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e

let test_instance_cache_avoids_recommunication () =
  (* communicate(C, ko) where C's footprint does not depend on ko: the
     instance is cached, so only the first iteration pays. *)
  let machine = Machine.grid [| 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 4; 4 |] ~dist:"[x,y] -> [x]";
          Api.tensor "B" [| 4; 4 |] ~dist:"[x,y] -> [x]";
          Api.tensor "C" [| 4; 4 |] ~dist:"[x,y] -> [0]";
        ]
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "divide(i, io, ii, 2); distribute(io); split(j, jo, ji, 2);\n\
         reorder(io, jo, ii, ji, k); communicate({A,B}, io); communicate(C, jo)"
  in
  (match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e);
  let s = Api.estimate plan in
  (* C lives on processor 0; processor 1 fetches the whole of C once,
     not once per jo step. *)
  Alcotest.(check (float 0.0)) "C fetched once" (4.0 *. 4.0 *. 8.0)
    (s.Stats.bytes_inter +. s.Stats.bytes_intra)

(* Inputs cached at jo and a substituted gemm inside the k chunks: each
   leaf reads one chunk of its B and C instances, so its operands start
   at the chunk, not at the instance. *)
let test_sliced_input_leaves () =
  let p =
    Api.problem_exn ~machine:(Machine.grid [| 2; 2 |]) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:(List.map (fun t -> Api.tensor t [| 8; 8 |] ~dist:"[x,y] -> [x,y]") [ "A"; "B"; "C" ])
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 4); \
         reorder(ko, ii, ji, ki); communicate({A,B,C}, jo); substitute({ii,ji,ki}, gemm)"
  in
  Alcotest.(check int) "tiled leaves" 8 (Exec.plan_leaf_tiers (Api.eplan_exn plan)).Exec.tiled;
  match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e

(* A [=] statement whose output appears on the RHS reads the caller's
   value of the output, not the zero-seeded buffer it is writing. *)
let self_ref_plan machine =
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = A(i,j) + B(i,j)"
      ~tensors:
        [
          Api.tensor "A" [| 4; 4 |] ~dist:"[x,y] -> [x]";
          Api.tensor "B" [| 4; 4 |] ~dist:"[x,y] -> [x]";
        ]
      ()
  in
  Api.compile_script_exn p ~schedule:"distribute(i); communicate({A,B}, i)"

let test_self_reference_reads_input () =
  let plan = self_ref_plan (Machine.grid [| 2 |]) in
  (* Exact values: A = 1 everywhere, B = 2 everywhere, result must be 3. *)
  let ones = Distal_tensor.Dense.init [| 4; 4 |] (fun _ -> 1.0) in
  let twos = Distal_tensor.Dense.init [| 4; 4 |] (fun _ -> 2.0) in
  let r = Api.run_exn plan ~data:[ ("A", ones); ("B", twos) ] in
  (match r.Exec.output with
  | None -> Alcotest.fail "no output"
  | Some out ->
      Alcotest.(check (float 0.0)) "A + B with caller's A" 3.0
        (Distal_tensor.Dense.get out [| 1; 2 |]));
  (* And against the serial reference on random data (random_inputs must
     supply A even though the statement does not accumulate). *)
  match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e

let test_self_reference_remote_owner () =
  (* The output is owned elsewhere: the read instance travels, and the
     simulated result still matches the reference. *)
  let machine = Machine.grid [| 3 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"a(i) = a(i) * b(i) + a(i)"
      ~tensors:
        [
          Api.tensor "a" [| 6 |] ~dist:"[x] -> [0]";
          Api.tensor "b" [| 6 |] ~dist:"[x] -> [x]";
        ]
      ()
  in
  let plan =
    Api.compile_script_exn p ~schedule:"distribute(i); communicate({a,b}, i)"
  in
  (match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e);
  let s = Api.estimate plan in
  Alcotest.(check bool) "self-ref reads are charged" true
    (s.Stats.bytes_inter +. s.Stats.bytes_intra > 0.0)

let test_redistribute_broadcast () =
  (* One source, a replicated destination: the exchange is priced as a
     single broadcast, not three independent point-to-point copies. *)
  let machine = Machine.grid [| 4 |] in
  let cost = Api.Cost_model.cpu_distal in
  let s =
    Api.redistribute ~machine ~cost ~shape:[| 8 |]
      ~src:(Api.Distnot.parse_exn "[x] -> [0]")
      ~dst:(Api.Distnot.parse_exn "[x] -> [*]")
      ()
  in
  let bytes = 8.0 *. 8.0 in
  let bcast =
    Api.Cost_model.broadcast_time cost Api.Cost_model.Inter ~bytes ~receivers:3
  in
  Alcotest.(check int) "three receivers" 3 s.Stats.messages;
  Alcotest.(check (float 1e-12)) "priced as one broadcast" bcast s.Stats.time;
  let p2p = Api.Cost_model.copy_time cost Api.Cost_model.Inter ~bytes in
  Alcotest.(check bool) "cheaper than serialized p2p" true
    (s.Stats.time < (3.0 *. p2p) -. 1e-15)

let test_full_vs_model_event_streams () =
  (* The Full and Model executions of one spec must emit byte-identical
     copy-event streams and identical aggregate stats. *)
  let plan = self_ref_plan (Machine.grid [| 2 |]) in
  let data = Api.random_inputs plan in
  let run mode =
    let log = ref [] in
    let r = Api.run_exn ~mode ~trace:log plan ~data:(if mode = Exec.Full then data else []) in
    (List.map Exec.trace_to_string !log, r.Exec.stats)
  in
  let full_events, full_stats = run Exec.Full in
  let model_events, model_stats = run Exec.Model in
  Alcotest.(check (list string)) "identical event streams" full_events model_events;
  Alcotest.(check string) "identical stats" (Stats.to_string full_stats)
    (Stats.to_string model_stats)

let test_trace_disabled_by_default () =
  let plan = running_example "distribute(i); communicate({a,b}, i)" in
  let r = Api.run_exn plan ~data:(Api.random_inputs plan) in
  Alcotest.(check bool) "runs without a trace sink" true (r.Exec.output <> None)

let suites =
  [
    ( "exec details",
      [
        Alcotest.test_case "fig7a naive completion" `Quick test_naive_completion_fig7a;
        Alcotest.test_case "fig7b aggregation" `Quick test_aggregated_completion_fig7b;
        Alcotest.test_case "over-decomposition" `Quick test_overdecomposition_doubles_work_per_proc;
        Alcotest.test_case "accumulate + reduction" `Quick test_accumulate_into_reduction;
        Alcotest.test_case "instance cache" `Quick test_instance_cache_avoids_recommunication;
        Alcotest.test_case "sliced input leaves" `Quick test_sliced_input_leaves;
        Alcotest.test_case "no trace by default" `Quick test_trace_disabled_by_default;
        Alcotest.test_case "self-reference reads input" `Quick
          test_self_reference_reads_input;
        Alcotest.test_case "self-reference remote owner" `Quick
          test_self_reference_remote_owner;
        Alcotest.test_case "redistribute broadcast" `Quick test_redistribute_broadcast;
        Alcotest.test_case "full vs model event streams" `Quick
          test_full_vs_model_event_streams;
      ] );
  ]
