(* Error-path coverage: every user-facing entry point must reject invalid
   input with a Result error (never an exception or a wrong answer). *)

module Api = Distal.Api
module Machine = Api.Machine
module S = Api.Schedule

let machine = Machine.grid [| 2; 2 |]

let tensors =
  [
    Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
    Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
    Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
  ]

let gemm = "A(i,j) = B(i,k) * C(k,j)"

let expect_problem_error ?(tensors = tensors) stmt name =
  match Api.problem ~machine ~stmt ~tensors () with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e -> Alcotest.(check bool) (name ^ " has message") true (String.length e > 0)

let test_problem_errors () =
  expect_problem_error "A(i,j) = " "truncated statement";
  expect_problem_error "A(i,j) = Z(i,j)" "undeclared tensor";
  expect_problem_error "A(i,j,k) = B(i,k) * C(k,j)" "arity mismatch";
  (* conflicting extents need unequal shapes: *)
  (match
     Api.problem ~machine ~stmt:"A(i,j) = B(j,i)"
       ~tensors:
         [
           Api.tensor "A" [| 8; 4 |] ~dist:"[x,y] -> [x,y]";
           Api.tensor "B" [| 8; 4 |] ~dist:"[x,y] -> [x,y]";
         ]
       ()
   with
  | Ok _ -> Alcotest.fail "transposed extents must conflict"
  | Error _ -> ());
  (* Extents must be positive and their element count must fit an int;
     the error names the tensor. *)
  List.iter
    (fun (shape, what) ->
      match
        Api.problem ~machine ~stmt:"A(i,j) = B(i,j)"
          ~tensors:
            [
              Api.tensor "A" shape ~dist:"[x,y] -> [x,y]";
              Api.tensor "B" shape ~dist:"[x,y] -> [x,y]";
            ]
          ()
      with
      | Ok _ -> Alcotest.failf "%s must be rejected" what
      | Error e ->
          Alcotest.(check bool) (what ^ " names the tensor: " ^ e) true
            (Astring_contains.contains e "tensor A"))
    [
      ([| -4; 4 |], "a negative extent");
      ([| 0; 4 |], "a zero extent");
      ([| max_int / 2; 4 |], "an overflowing element count");
    ];
  match
    Api.problem ~machine ~stmt:gemm
      ~tensors:
        [
          Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x]" (* machine is 2-D *);
          Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
        ]
      ()
  with
  | Ok _ -> Alcotest.fail "distribution/machine dimensionality mismatch"
  | Error _ -> ()

let compile_err schedule name =
  let p = Api.problem_exn ~machine ~stmt:gemm ~tensors () in
  match Api.compile_script p ~schedule with
  | Ok _ -> Alcotest.failf "%s: expected a compile error" name
  | Error e -> Alcotest.(check bool) (name ^ " has message") true (String.length e > 0)

let test_compile_errors () =
  compile_err "divide(q, qo, qi, 2)" "unknown variable";
  compile_err "divide(i, io, ii, 0)" "non-positive divisor";
  compile_err "divide(i, io, ii, 2); divide(i, a, b, 2)" "re-dividing a consumed variable";
  compile_err "distribute(j)" "distributed loop below sequential i";
  compile_err "communicate(A, i); communicate(A, j)" "two communicate points for A";
  compile_err "substitute({i,j,k}, ttv)" "wrong kernel pattern";
  compile_err "substitute({i,j}, gemm)" "not the innermost loops";
  compile_err "rotate(i, {k}, is)" "rotate by a non-enclosing loop";
  compile_err "collapse(i, k, f)" "collapse of non-adjacent loops";
  compile_err
    "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); substitute({ii,ji,k}, gemm);\n\
     communicate(B, k)"
    "communicate inside a substituted leaf"

let test_run_errors () =
  let p = Api.problem_exn ~machine ~stmt:gemm ~tensors () in
  let plan =
    Api.compile_script_exn p
      ~schedule:"distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2])"
  in
  (match Api.run plan ~data:[] with
  | Ok _ -> Alcotest.fail "missing input data must be rejected"
  | Error _ -> ());
  (* Model mode needs no data. *)
  match Api.run ~mode:Api.Exec.Model plan ~data:[] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* Full runs stage every scalar leaf; a leaf shape staging does not
   cover fails the run with an error naming the variable, and Model runs,
   which stage nothing, still price it. *)
let test_unstageable_leaf_errors () =
  List.iter
    (fun (stmt, schedule, var) ->
      let p = Api.problem_exn ~machine ~stmt ~tensors () in
      let plan = Api.compile_script_exn p ~schedule in
      let data = Api.random_inputs plan in
      (match Api.run plan ~data with
      | Ok _ -> Alcotest.failf "%s: expected an error" schedule
      | Error e ->
          Alcotest.(check bool) (schedule ^ " names " ^ var) true
            (Astring_contains.contains e (var ^ " ")));
      match Api.run ~mode:Api.Exec.Model plan ~data:[] with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [
      ( "A(i,j) = B(i,j) + C(i,j)",
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); collapse(ii, ji, f); \
         split(f, fo, fi, 3)",
        "ii" );
      ( gemm,
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); divide(k, ko, ki, 2); \
         reorder(ii, ko, ji, ki); rotate(ko, {ii}, kos); communicate({A,B,C}, jo)",
        "ko" );
    ]

(* Replay reads inputs in place at offsets fixed against the spec's
   shapes, so data of any other shape — smaller, larger or of another
   rank, an accumulated output included — fails the run, naming the
   tensor, before anything is read. *)
let test_data_shape_errors () =
  let p = Api.problem_exn ~machine ~stmt:"A(i,j) += B(i,k) * C(k,j)" ~tensors () in
  let plan =
    Api.compile_script_exn p
      ~schedule:"distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); communicate({A,B,C}, jo)"
  in
  let data = Api.random_inputs plan in
  let ep = Api.eplan_exn plan in
  List.iter
    (fun (name, shape) ->
      let data =
        List.map
          (fun (n, d) -> if n = name then (n, Api.Dense.create shape) else (n, d))
          data
      in
      match Api.Exec.run_plan ep ~data with
      | Ok _ ->
          Alcotest.failf "%s shaped %s must be rejected" name
            (Distal_support.Ints.to_string shape)
      | Error e ->
          Alcotest.(check bool) (e ^ " names the tensor") true
            (Astring_contains.contains e ("tensor " ^ name)))
    [ ("B", [| 8; 4 |]); ("C", [| 16; 16 |]); ("B", [| 64 |]); ("A", [| 4; 8 |]) ];
  match Api.run plan ~data with Ok _ -> () | Error e -> Alcotest.fail e

let test_distribution_parse_errors () =
  List.iter
    (fun s ->
      match Api.Distnot.parse s with
      | Ok _ -> Alcotest.failf "expected %S to fail" s
      | Error _ -> ())
    [ ""; "[x,y]"; "[x,y] ->"; "[x,y] -> [x y]"; "[x;y] -> [x]" ]

let test_validate_catches_bad_distribution_pairing () =
  (* A distribution that is valid for the machine but places B's tiles
     differently than the schedule assumes must still compute correctly —
     the runtime fetches from wherever the data is. This guards against
     the executor taking locality shortcuts. *)
  let p =
    Api.problem_exn ~machine ~stmt:gemm
      ~tensors:
        [
          Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [y,x]" (* transposed placement *);
          Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [0,0]" (* all on one proc *);
        ]
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:
        "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 4);\n\
         reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);\n\
         substitute({ii,ji,ki}, gemm)"
  in
  match Api.validate plan with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_pipeline_errors () =
  (match
     Api.pipeline_script ~machine ~tensors
       ~stages:[ (gemm, "divide(i, io, ii, 0)") ]
   with
  | Ok _ -> Alcotest.fail "bad stage schedule must be rejected"
  | Error _ -> ());
  match Api.pipeline_script ~machine ~tensors ~stages:[ ("A(i,j) = ", "") ] with
  | Ok _ -> Alcotest.fail "bad stage statement must be rejected"
  | Error _ -> ()

let suites =
  [
    ( "error paths",
      [
        Alcotest.test_case "problem errors" `Quick test_problem_errors;
        Alcotest.test_case "compile errors" `Quick test_compile_errors;
        Alcotest.test_case "run errors" `Quick test_run_errors;
        Alcotest.test_case "data shape errors" `Quick test_data_shape_errors;
        Alcotest.test_case "distribution parse errors" `Quick test_distribution_parse_errors;
        Alcotest.test_case "adversarial distributions" `Quick
          test_validate_catches_bad_distribution_pairing;
        Alcotest.test_case "pipeline errors" `Quick test_pipeline_errors;
        Alcotest.test_case "unstageable leaf errors" `Quick test_unstageable_leaf_errors;
      ] );
  ]
