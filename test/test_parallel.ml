(* The parallel executor's determinism contract (see Exec.execute): for
   any domain count, a run produces byte-identical results, copy traces,
   stats and Full-mode event streams. The contract is what makes host parallelism invisible
   to the simulation — checked here both on fixed worst-case plans
   (distributed reductions, cyclic distributions) and property-style on
   the fuzzer's statement x distribution x schedule space. *)

module Api = Distal.Api
module Machine = Api.Machine
module Dense = Api.Dense
module Exec = Api.Exec
module Stats = Api.Stats
module Rng = Distal_support.Rng
module Pool = Distal_support.Pool
module Profile = Distal_obs.Profile
module Chrome_trace = Distal_obs.Chrome_trace

(* {2 Pool unit tests} *)

let test_pool_lanes () =
  let pool = Pool.create 4 in
  let hits = Array.make 4 0 in
  Pool.run pool ~lanes:4 (fun lane -> hits.(lane) <- hits.(lane) + 1);
  Alcotest.(check (array int)) "every lane ran once" [| 1; 1; 1; 1 |] hits;
  (* Lane counts beyond the pool size are clamped to the pool size. *)
  let hits2 = Array.make 4 0 in
  Pool.run pool ~lanes:10 (fun lane -> hits2.(lane) <- hits2.(lane) + 1);
  Alcotest.(check (array int)) "clamped to pool size" [| 1; 1; 1; 1 |] hits2;
  Pool.shutdown pool

let test_pool_exception () =
  let pool = Pool.create 3 in
  (match Pool.run pool ~lanes:3 (fun lane -> if lane = 1 then failwith "boom") with
  | () -> Alcotest.fail "expected the lane's exception to propagate"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  (* The pool survives a failed job, and survives an explicit shutdown
     (workers respawn on the next multi-lane run). *)
  let hits = Array.make 3 0 in
  Pool.run pool ~lanes:3 (fun lane -> hits.(lane) <- hits.(lane) + 1);
  Alcotest.(check (array int)) "reusable after failure" [| 1; 1; 1 |] hits;
  Pool.shutdown pool;
  Array.fill hits 0 3 0;
  Pool.run pool ~lanes:3 (fun lane -> hits.(lane) <- hits.(lane) + 1);
  Alcotest.(check (array int)) "reusable after shutdown" [| 1; 1; 1 |] hits;
  Pool.shutdown pool

let test_default_size () =
  let old = Option.value (Sys.getenv_opt "DISTAL_NUM_DOMAINS") ~default:"" in
  let restore () = Unix.putenv "DISTAL_NUM_DOMAINS" old in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "DISTAL_NUM_DOMAINS" "5";
      Alcotest.(check int) "env override" 5 (Pool.default_size ());
      Unix.putenv "DISTAL_NUM_DOMAINS" "500";
      Alcotest.(check int) "clamped to 64" 64 (Pool.default_size ());
      Unix.putenv "DISTAL_NUM_DOMAINS" "";
      if Pool.default_size () < 1 then Alcotest.fail "empty means unset";
      Unix.putenv "DISTAL_NUM_DOMAINS" "zero";
      match Pool.default_size () with
      | _ -> Alcotest.fail "expected Invalid_argument on a non-integer"
      | exception Invalid_argument _ -> ())

(* {2 Byte-identity across domain counts} *)

(* Everything observable about a Full-mode run: output element bits, the
   copy trace, the stats rendering, and the whole profile event stream
   (serialized as Chrome trace JSON, which covers name/cat/track/ts/attrs
   of every event in emission order). *)
let observe plan ~data ~domains =
  let profile = Profile.create () in
  let trace = ref [] in
  let r = Api.run_exn ~mode:Exec.Full ~domains ~trace ~profile plan ~data in
  let bits =
    match r.Exec.output with
    | None -> []
    | Some out ->
        List.init (Dense.size out) (fun i -> Int64.bits_of_float (Dense.get_lin out i))
  in
  ( bits,
    List.map Exec.trace_to_string !trace,
    Stats.to_string r.Exec.stats,
    Chrome_trace.to_string (Profile.events profile) )

let domain_counts = [ 2; 8 ]

let check_identical ~what plan ~data =
  let base = observe plan ~data ~domains:1 in
  List.iter
    (fun domains ->
      let bits0, trace0, stats0, events0 = base in
      let bits, tr, stats, events = observe plan ~data ~domains in
      let ctx fmt =
        Printf.ksprintf
          (fun s -> Alcotest.failf "%s differs (domains=%d): %s" what domains s)
          fmt
      in
      if bits <> bits0 then ctx "output bits";
      if tr <> trace0 then ctx "copy trace";
      if not (String.equal stats stats0) then ctx "stats\n%s\nvs\n%s" stats0 stats;
      if not (String.equal events events0) then ctx "event stream")
    domain_counts

(* A distributed reduction with cyclic inputs: tasks contribute partial
   sums that the merge path must fold in launch-point order, and the
   staged evaluator sees strided leaf footprints. *)
let reduction_plan () =
  let machine = Machine.grid [| 4 |] in
  let n = 16 in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [0]";
          Api.tensor "B" [| n; n |] ~dist:"[x,y] -> [x%2]";
          Api.tensor "C" [| n; n |] ~dist:"[x,y] -> [y%2]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      "divide(k, ko, ki, 4); reorder(ko, i, j, ki); distribute(ko);\n\
       communicate({A,B,C}, ko)"

let test_reduction_identity () =
  let plan = reduction_plan () in
  let data = Api.random_inputs plan in
  check_identical ~what:"distributed reduction" plan ~data

(* An owner-computes GEMM over a 2-D grid: many independent points, no
   reduction epilogue — the pure parallel-probe path. *)
let grid_plan () =
  let machine = Machine.grid [| 2; 2 |] in
  let n = 12 in
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
  Api.compile_script_exn p
    ~schedule:
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 3);\n\
       reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"

let test_grid_identity () =
  let plan = grid_plan () in
  let data = Api.random_inputs plan in
  check_identical ~what:"grid gemm" plan ~data

(* Accumulating self-referencing statement, where a staging bug would
   double-count the output base. *)
let test_staged_accumulate () =
  let machine = Machine.grid [| 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i) += B(i,k) + A(i)"
      ~tensors:
        [
          Api.tensor "A" [| 10 |] ~dist:"[x] -> [x]";
          Api.tensor "B" [| 10; 6 |] ~dist:"[x,y] -> [x]";
        ]
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:"divide(i, io, ii, 2); distribute(io); communicate({A,B}, io)"
  in
  (match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e);
  check_identical ~what:"self-referencing accumulation" plan
    ~data:(Api.random_inputs plan)

(* {2 Property: identity over the fuzzer's plan distribution}

   Reuses the fuzz generators (statements over up to 4 variables, block /
   block-cyclic / fixed / broadcast distributions, random distribute /
   split / rotate schedules), so block-cyclic fragment patterns and
   distributed reductions all flow through the parallel replay. *)

let gen_plan seed =
  let rng = Rng.create (seed * 31 + 7) in
  let stmt, shapes, lhs_vars, rhs_vars = Test_fuzz.gen_stmt rng in
  let mdims = Array.init (1 + Rng.int rng 2) (fun _ -> 1 + Rng.int rng 3) in
  let machine = Machine.grid mdims in
  let tensors =
    List.map
      (fun (name, shape) ->
        Api.tensor_d name shape (Test_fuzz.gen_dist rng ~rank:(Array.length shape) ~mdims))
      shapes
  in
  match Api.problem ~machine ~stmt ~tensors () with
  | Error e -> QCheck.Test.fail_reportf "problem construction failed: %s" e
  | Ok problem -> (
      let schedule = Test_fuzz.gen_schedule rng ~lhs_vars ~rhs_vars in
      match Api.compile problem ~schedule with
      | Error e -> QCheck.Test.fail_reportf "compile failed for %s: %s" stmt e
      | Ok plan -> (stmt, plan))

let identity_once seed =
  let stmt, plan = gen_plan seed in
  let data = Api.random_inputs ~seed plan in
  let base = observe plan ~data ~domains:1 in
  List.for_all
    (fun domains ->
      if observe plan ~data ~domains = base then true
      else
        QCheck.Test.fail_reportf "parallel run diverges for %s (domains=%d)" stmt
          domains)
    domain_counts

let qcheck_identity =
  QCheck.Test.make ~name:"byte-identity across domain counts" ~count:60
    QCheck.small_nat
    (fun seed -> Test_fuzz.seeded (succ seed) (fun () -> identity_once (succ seed)))

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool runs every lane" `Quick test_pool_lanes;
        Alcotest.test_case "pool re-raises lane exceptions" `Quick test_pool_exception;
        Alcotest.test_case "DISTAL_NUM_DOMAINS parsing" `Quick test_default_size;
        Alcotest.test_case "reduction identity" `Quick test_reduction_identity;
        Alcotest.test_case "grid gemm identity" `Quick test_grid_identity;
        Alcotest.test_case "staged accumulation identity" `Quick test_staged_accumulate;
        Test_fuzz.to_alcotest qcheck_identity;
      ] );
  ]
