(* End-to-end checks that schedules only affect performance, never results
   (§3.3): every distributed execution is compared against the serial
   reference interpreter. *)

module Api = Distal.Api
module Machine = Api.Machine

let validate_or_fail plan =
  match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e

let gemm_problem ~machine ~n ~dists =
  let a, b, c = dists in
  Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
    ~tensors:
      [
        Api.tensor "A" [| n; n |] ~dist:a;
        Api.tensor "B" [| n; n |] ~dist:b;
        Api.tensor "C" [| n; n |] ~dist:c;
      ] ()

let tiled = ("[x,y] -> [x,y]", "[x,y] -> [x,y]", "[x,y] -> [x,y]")

let test_cannon () =
  (* Fig. 9 row 1 on a 3x3 grid with uneven tiles (n=10). *)
  let machine = Machine.grid [| 3; 3 |] in
  let p = gemm_problem ~machine ~n:10 ~dists:tiled in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [3,3]);\n\
         divide(k, ko, ki, 3); reorder(ko, ii, ji, ki);\n\
         rotate(ko, {io,jo}, kos);\n\
         communicate(A, jo); communicate({B,C}, kos);\n\
         substitute({ii,ji,ki}, gemm)"
  in
  validate_or_fail plan

let test_pumma () =
  let machine = Machine.grid [| 2; 2 |] in
  let p = gemm_problem ~machine ~n:8 ~dists:tiled in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]);\n\
         divide(k, ko, ki, 2); reorder(ko, ii, ji, ki);\n\
         rotate(ko, {io}, kos);\n\
         communicate(A, jo); communicate({B,C}, kos);\n\
         substitute({ii,ji,ki}, gemm)"
  in
  validate_or_fail plan

let test_johnson () =
  (* 3-D algorithm on a 2x2x2 cube: inputs fixed to faces, distributed
     reduction into A. *)
  let machine = Machine.grid [| 2; 2; 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x,y,0]";
          Api.tensor "B" [| 8; 8 |] ~dist:"[x,z] -> [x,0,z]";
          Api.tensor "C" [| 8; 8 |] ~dist:"[z,y] -> [0,y,z]";
        ] ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j,k}, {io,jo,ko}, {ii,ji,ki}, [2,2,2]);\n\
         communicate({A,B,C}, ko); substitute({ii,ji,ki}, gemm)"
  in
  validate_or_fail plan

let test_summa_rectangular_grid () =
  let machine = Machine.grid [| 2; 4 |] in
  let p = gemm_problem ~machine ~n:8 ~dists:tiled in
  (* Distributions use the machine's own grid; schedule must agree. *)
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,4]); split(k, ko, ki, 4);\n\
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);\n\
         substitute({ii,ji,ki}, gemm)"
  in
  validate_or_fail plan

let test_summa_scalar_leaf () =
  (* Same SUMMA schedule without substitute: the interpreted scalar leaf
     must agree with the substituted kernel. *)
  let machine = Machine.grid [| 2; 2 |] in
  let p = gemm_problem ~machine ~n:6 ~dists:tiled in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 3);\n\
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"
  in
  validate_or_fail plan

let test_mismatched_data_distribution () =
  (* Computation tiled 2x2 but B stored by rows: still correct, just more
     communication ("code can shape to data", §8). *)
  let machine = Machine.grid [| 2; 2 |] in
  let p =
    gemm_problem ~machine ~n:8
      ~dists:("[x,y] -> [x,y]", "[x,y] -> [x,*]", "[x,y] -> [x,y]")
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 4);\n\
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);\n\
         substitute({ii,ji,ki}, gemm)"
  in
  validate_or_fail plan

let test_running_example_rotate () =
  (* §3.3's running example forall_i forall_j a(i) += b(j), distributed
     over i, with and without rotate (Fig. 8). *)
  let machine = Machine.grid [| 3 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"a(i) = b(j)"
      ~tensors:
        [
          Api.tensor "a" [| 3 |] ~dist:"[x] -> [x]";
          Api.tensor "b" [| 3 |] ~dist:"[x] -> [x]";
        ] ()
  in
  let broadcast = Api.compile_script_exn p ~schedule:"distribute(i); communicate(a, i); communicate(b, j)" in
  validate_or_fail broadcast;
  let systolic =
    Api.compile_script_exn p
      ~schedule:"distribute(i); rotate(j, {i}, js); communicate(a, i); communicate(b, js)"
  in
  validate_or_fail systolic;
  (* The rotated version must avoid the broadcast: same bytes, but no step
     has one owner serving several receivers. *)
  let sb = Api.estimate broadcast and ss = Api.estimate systolic in
  Alcotest.(check bool) "same volume" true
    (abs_float (sb.Api.Stats.bytes_inter -. ss.Api.Stats.bytes_inter) < 1.0);
  Alcotest.(check bool) "systolic no slower" true
    (ss.Api.Stats.time <= sb.Api.Stats.time +. 1e-12)

let test_ttm_distributed () =
  let machine = Machine.grid [| 4 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j,l) = B(i,j,k) * C(k,l)"
      ~tensors:
        [
          Api.tensor "A" [| 8; 3; 5 |] ~dist:"[x,y,z] -> [x]";
          Api.tensor "B" [| 8; 3; 4 |] ~dist:"[x,y,z] -> [x]";
          Api.tensor "C" [| 4; 5 |] ~dist:"[x,y] -> [*]";
        ] ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "divide(i, io, ii, 4); distribute(io); communicate({A,B,C}, io);\n\
         substitute({ii,j,k,l}, ttm)"
  in
  validate_or_fail plan;
  Alcotest.(check (float 0.0)) "no communication" 0.0
    (let s = Api.estimate plan in
     s.Api.Stats.bytes_inter +. s.Api.Stats.bytes_intra)

let test_mttkrp_ballard () =
  (* Ballard et al.: keep the 3-tensor in place, replicate the factors,
     reduce into the output. *)
  let machine = Machine.grid [| 2; 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,l) = B(i,j,k) * C(j,l) * D(k,l)"
      ~tensors:
        [
          Api.tensor "A" [| 8; 4 |] ~dist:"[x,y] -> [x,*]";
          Api.tensor "B" [| 8; 6; 6 |] ~dist:"[x,y,z] -> [x,y]";
          Api.tensor "C" [| 6; 4 |] ~dist:"[x,y] -> [*,x]";
          Api.tensor "D" [| 6; 4 |] ~dist:"[x,y] -> [*,*]";
        ] ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]);\n\
         communicate({A,B,C,D}, jo); substitute({ii,ji,k,l}, mttkrp)"
  in
  validate_or_fail plan

let test_accumulate_statement () =
  let machine = Machine.grid [| 2; 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) += B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 6; 6 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 6; 6 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "C" [| 6; 6 |] ~dist:"[x,y] -> [x,y]";
        ] ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 3);\n\
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);\n\
         substitute({ii,ji,ki}, gemm)"
  in
  validate_or_fail plan

let test_elementwise_add () =
  let machine = Machine.grid [| 3 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,j) + C(i,j) + 1"
      ~tensors:
        [
          Api.tensor "A" [| 7; 4 |] ~dist:"[x,y] -> [x]";
          Api.tensor "B" [| 7; 4 |] ~dist:"[x,y] -> [x]";
          Api.tensor "C" [| 7; 4 |] ~dist:"[x,y] -> [x]";
        ] ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:"divide(i, io, ii, 3); distribute(io); communicate({A,B,C}, io)"
  in
  validate_or_fail plan

let test_hierarchical_machine_gemm () =
  (* Node grid 2x2, 2 GPUs per node; hierarchical distribution and a
     two-level distribute. *)
  let machine =
    Machine.hierarchical ~node_dims:[| 2; 2 |] ~proc_dims:[| 2 |] ~kind:Machine.Gpu
      ~mem_per_proc:16e9
  in
  let d2 = "[x,y] -> [x,y]; [z,w] -> [z]" in
  let p = gemm_problem ~machine ~n:8 ~dists:(d2, d2, d2) in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {im,ji}, [2,2]);\n\
         divide(im, ig, ii, 2); reorder(io, jo, ig, ii, ji, k); distribute(ig);\n\
         communicate({A,B,C}, ig); substitute({ii,ji,k}, gemm)"
  in
  validate_or_fail plan

let suites =
  [
    ( "semantics",
      [
        Alcotest.test_case "cannon 3x3 uneven" `Quick test_cannon;
        Alcotest.test_case "pumma" `Quick test_pumma;
        Alcotest.test_case "johnson 3d" `Quick test_johnson;
        Alcotest.test_case "summa rectangular" `Quick test_summa_rectangular_grid;
        Alcotest.test_case "summa scalar leaf" `Quick test_summa_scalar_leaf;
        Alcotest.test_case "mismatched distribution" `Quick test_mismatched_data_distribution;
        Alcotest.test_case "rotate running example" `Quick test_running_example_rotate;
        Alcotest.test_case "ttm distributed" `Quick test_ttm_distributed;
        Alcotest.test_case "mttkrp ballard" `Quick test_mttkrp_ballard;
        Alcotest.test_case "accumulate" `Quick test_accumulate_statement;
        Alcotest.test_case "elementwise add" `Quick test_elementwise_add;
        Alcotest.test_case "hierarchical machine" `Quick test_hierarchical_machine_gemm;
      ] );
  ]
