module Expr = Distal_ir.Expr
module P = Distal_ir.Einsum_parser
module Typecheck = Distal_ir.Typecheck
module Provenance = Distal_ir.Provenance
module Kernel_match = Distal_ir.Kernel_match
module Cin = Distal_ir.Cin
module Schedule = Distal_ir.Schedule
module Lower = Distal_ir.Lower
module Taskir = Distal_ir.Taskir

let roundtrip s = Expr.to_string (P.parse_exn s)

let test_parse_gemm () =
  Alcotest.(check string) "gemm" "A(i,j) = B(i,k) * C(k,j)"
    (roundtrip "A(i,j) = B(i,k) * C(k,j)");
  let stmt = P.parse_exn "A(i,j) = B(i,k) * C(k,j)" in
  Alcotest.(check (list string)) "tensors" [ "A"; "B"; "C" ] (Expr.tensors stmt);
  Alcotest.(check (list string)) "vars" [ "i"; "j"; "k" ] (Expr.index_vars stmt);
  Alcotest.(check (list string)) "reduction" [ "k" ] (Expr.reduction_vars stmt)

let test_parse_scalar () =
  let stmt = P.parse_exn "a = B(i,j,k) * C(i,j,k)" in
  Alcotest.(check (list string)) "lhs scalar" [] stmt.lhs.indices;
  Alcotest.(check (list string)) "reduction all" [ "i"; "j"; "k" ]
    (Expr.reduction_vars stmt)

let test_parse_accum_and_sum () =
  let stmt = P.parse_exn "A(i) += B(i) + 2 * C(i)" in
  Alcotest.(check bool) "accum" true stmt.accum;
  Alcotest.(check string) "pretty" "A(i) += B(i) + 2 * C(i)" (Expr.to_string stmt)

let test_parse_mttkrp () =
  Alcotest.(check string) "mttkrp" "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)"
    (roundtrip "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)")

let test_parse_parens_precedence () =
  let s = P.parse_exn "A(i) = (B(i) + C(i)) * D(i)" in
  (match s.rhs with
  | Expr.Mul (Expr.Add _, Expr.Access _) -> ()
  | _ -> Alcotest.fail "expected (B+C)*D structure");
  let s2 = P.parse_exn "A(i) = B(i) + C(i) * D(i)" in
  match s2.rhs with
  | Expr.Add (Expr.Access _, Expr.Mul _) -> ()
  | _ -> Alcotest.fail "expected B+(C*D) structure"

let expect_parse_error s =
  match P.parse s with
  | Ok _ -> Alcotest.failf "expected parse error for %S" s
  | Error _ -> ()

let test_parse_errors () =
  List.iter expect_parse_error
    [ "A(i,j)"; "A(i,) = B(i)"; "= B(i)"; "A(i) = "; "A(i) = B(i) C(i)"; "A(i) = B(i))" ]

let test_eval () =
  let stmt = P.parse_exn "A(i) = B(i) * C(i) + 1" in
  let lookup (a : Expr.access) _ = if a.tensor = "B" then 3.0 else 4.0 in
  Alcotest.(check (float 0.0)) "eval" 13.0
    (Expr.eval stmt ~lookup ~point:(fun _ -> 0))

let shapes = [ ("A", [| 4; 6 |]); ("B", [| 4; 5 |]); ("C", [| 5; 6 |]) ]

let test_typecheck_ok () =
  let stmt = P.parse_exn "A(i,j) = B(i,k) * C(k,j)" in
  let env = Typecheck.check_exn stmt ~shapes in
  Alcotest.(check (list (pair string int))) "extents"
    [ ("i", 4); ("j", 6); ("k", 5) ] env

let expect_tc_error stmt_s shapes =
  match Typecheck.check (P.parse_exn stmt_s) ~shapes with
  | Ok _ -> Alcotest.failf "expected typecheck error for %s" stmt_s
  | Error _ -> ()

let test_typecheck_errors () =
  expect_tc_error "A(i,j) = B(i,k) * C(k,j)" [ ("A", [| 4; 6 |]); ("B", [| 4; 5 |]); ("C", [| 9; 6 |]) ];
  (* conflicting extents for k *)
  expect_tc_error "A(i,j) = B(i,k) * C(k,j)" [ ("A", [| 4 |]); ("B", [| 4; 5 |]); ("C", [| 5; 6 |]) ];
  (* wrong arity *)
  expect_tc_error "A(i,i) = B(i,i)" [ ("A", [| 4; 4 |]); ("B", [| 4; 4 |]) ];
  (* diagonal access *)
  expect_tc_error "A(i) = B(i)" [ ("A", [| 4 |]) ];
  (* missing shape *)
  (* self-reference is legal: the output may be read on the rhs *)
  match
    Typecheck.check
      (P.parse_exn "A(i) = A(i) * B(i)")
      ~shapes:[ ("A", [| 4 |]); ("B", [| 4 |]) ]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "self-reference must typecheck: %s" e

(* {2 Provenance} *)

let env_of lst v = List.assoc_opt v lst

let test_divide_intervals () =
  let p = Provenance.create [ ("i", 10) ] in
  Result.get_ok (Provenance.divide p "i" ~outer:"io" ~inner:"ii" ~parts:3);
  Alcotest.(check int) "io extent" 3 (Provenance.extent p "io");
  Alcotest.(check int) "ii extent" 4 (Provenance.extent p "ii");
  Alcotest.(check (pair int int)) "unbound" (0, 10) (Provenance.interval p ~env:(env_of []) "i");
  Alcotest.(check (pair int int)) "io=0" (0, 4)
    (Provenance.interval p ~env:(env_of [ ("io", 0) ]) "i");
  Alcotest.(check (pair int int)) "io=2 clipped" (8, 10)
    (Provenance.interval p ~env:(env_of [ ("io", 2) ]) "i");
  Alcotest.(check (pair int int)) "point" (9, 10)
    (Provenance.interval p ~env:(env_of [ ("io", 2); ("ii", 1) ]) "i")

let test_split_intervals () =
  let p = Provenance.create [ ("k", 10) ] in
  Result.get_ok (Provenance.split p "k" ~outer:"ko" ~inner:"ki" ~chunk:4);
  Alcotest.(check int) "ko extent" 3 (Provenance.extent p "ko");
  Alcotest.(check int) "ki extent" 4 (Provenance.extent p "ki");
  Alcotest.(check (pair int int)) "ko=2 clipped" (8, 10)
    (Provenance.interval p ~env:(env_of [ ("ko", 2) ]) "k")

let test_guards () =
  let p = Provenance.create [ ("i", 10) ] in
  Result.get_ok (Provenance.divide p "i" ~outer:"io" ~inner:"ii" ~parts:3);
  Alcotest.(check bool) "interior ok" true
    (Provenance.guards_fn p (env_of [ ("io", 2); ("ii", 1) ]));
  (* io=2, ii=3 reconstructs i = 11 >= 10: guard-excluded. *)
  Alcotest.(check bool) "boundary excluded" false
    (Provenance.guards_fn p (env_of [ ("io", 2); ("ii", 3) ]))

let test_rotate_value () =
  let p = Provenance.create [ ("i", 3); ("j", 3); ("k", 3) ] in
  Result.get_ok (Provenance.rotate p ~target:"k" ~by:[ "i"; "j" ] ~result:"ks");
  (* k = (ks + i + j) mod 3 *)
  Alcotest.(check (pair int int)) "rotated point" (1, 2)
    (Provenance.interval p ~env:(env_of [ ("ks", 2); ("i", 1); ("j", 1) ]) "k");
  Alcotest.(check (pair int int)) "unbound by" (0, 3)
    (Provenance.interval p ~env:(env_of [ ("ks", 2) ]) "k");
  Alcotest.(check (option int)) "raw point" (Some 1)
    (Provenance.raw_point_fn p "k" (env_of [ ("ks", 2); ("i", 1); ("j", 1) ]));
  (* With ks, i and j bound, k's interval depends on their sum mod 3 only;
     with j unbound the key falls back to the bound variables themselves. *)
  let deps bound = Provenance.key_deps p ~bound:(fun v -> List.mem v bound) "k" in
  Alcotest.(check (list (pair (list string) int))) "rotated value"
    [ ([ "ks"; "i"; "j" ], 3) ] (deps [ "ks"; "i"; "j" ]);
  Alcotest.(check (list (pair (list string) int))) "by unbound"
    [ ([ "ks" ], 3); ([ "i" ], 3) ] (deps [ "ks"; "i" ])

let test_rotate_is_time_permutation () =
  (* For fixed i, the map ks -> k is a bijection on [0,e): every iteration
     of k still happens exactly once (rotate only affects performance). *)
  let p = Provenance.create [ ("i", 5); ("k", 5) ] in
  Result.get_ok (Provenance.rotate p ~target:"k" ~by:[ "i" ] ~result:"ks");
  for i = 0 to 4 do
    let seen = Array.make 5 false in
    for ks = 0 to 4 do
      match Provenance.raw_point_fn p "k" (env_of [ ("i", i); ("ks", ks) ]) with
      | Some k -> seen.(k) <- true
      | None -> Alcotest.fail "rotate should reconstruct a point"
    done;
    Alcotest.(check bool) "bijection" true (Array.for_all Fun.id seen)
  done

let test_fuse_intervals () =
  let p = Provenance.create [ ("i", 3); ("j", 4) ] in
  Result.get_ok (Provenance.fuse p ~first:"i" ~second:"j" ~fused:"f");
  Alcotest.(check int) "fused extent" 12 (Provenance.extent p "f");
  Alcotest.(check (pair int int)) "i from f" (2, 3)
    (Provenance.interval p ~env:(env_of [ ("f", 11) ]) "i");
  Alcotest.(check (pair int int)) "j from f" (3, 4)
    (Provenance.interval p ~env:(env_of [ ("f", 11) ]) "j");
  Alcotest.(check (pair int int)) "j unbound range" (0, 4)
    (Provenance.interval p ~env:(env_of []) "j")

let test_nested_divide () =
  let p = Provenance.create [ ("i", 16) ] in
  Result.get_ok (Provenance.divide p "i" ~outer:"io" ~inner:"ii" ~parts:4);
  Result.get_ok (Provenance.divide p "ii" ~outer:"iio" ~inner:"iii" ~parts:2);
  Alcotest.(check (pair int int)) "two-level tile" (10, 12)
    (Provenance.interval p ~env:(env_of [ ("io", 2); ("iio", 1) ]) "i")

let test_derives_from () =
  let p = Provenance.create [ ("i", 8); ("k", 8) ] in
  Result.get_ok (Provenance.divide p "k" ~outer:"ko" ~inner:"ki" ~parts:2);
  Result.get_ok (Provenance.rotate p ~target:"ko" ~by:[ "i" ] ~result:"kos");
  Alcotest.(check bool) "kos from k" true (Provenance.derives_from p "kos" ~root:"k");
  Alcotest.(check bool) "kos not from i" false (Provenance.derives_from p "kos" ~root:"i");
  Alcotest.(check bool) "live" true (Provenance.is_live p "kos");
  Alcotest.(check bool) "consumed" false (Provenance.is_live p "ko")

let test_provenance_errors () =
  let p = Provenance.create [ ("i", 8) ] in
  (match Provenance.divide p "x" ~outer:"a" ~inner:"b" ~parts:2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown var should fail");
  Result.get_ok (Provenance.divide p "i" ~outer:"io" ~inner:"ii" ~parts:2);
  (match Provenance.divide p "i" ~outer:"x" ~inner:"y" ~parts:2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double consumption should fail");
  match Provenance.split p "ii" ~outer:"io" ~inner:"z" ~chunk:2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "name collision should fail"

(* {2 Kernel matching} *)

let test_kernel_match () =
  let check_ok s kernel expected =
    match Kernel_match.check (P.parse_exn s) ~kernel with
    | Ok order -> Alcotest.(check (list string)) (s ^ " order") expected order
    | Error e -> Alcotest.failf "expected %s to match %s: %s" s kernel e
  in
  check_ok "A(i,j) = B(i,k) * C(k,j)" "gemm" [ "A"; "B"; "C" ];
  check_ok "X(p,q) = Y(p,r) * Z(r,q)" "gemm" [ "X"; "Y"; "Z" ];
  check_ok "A(i,j) = B(i,j,k) * c(k)" "ttv" [ "A"; "B"; "c" ];
  check_ok "A(i,j,l) = B(i,j,k) * C(k,l)" "ttm" [ "A"; "B"; "C" ];
  check_ok "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)" "mttkrp" [ "A"; "B"; "C"; "D" ];
  check_ok "a = B(i,j,k) * C(i,j,k)" "innerprod" [ "a"; "B"; "C" ]

let test_kernel_match_rejects () =
  let check_err s kernel =
    match Kernel_match.check (P.parse_exn s) ~kernel with
    | Ok _ -> Alcotest.failf "expected %s to NOT match %s" s kernel
    | Error _ -> ()
  in
  check_err "A(i,j) = B(i,k) * C(j,k)" "gemm";
  (* transposed C *)
  check_err "A(i,j) = B(i,k) + C(k,j)" "gemm";
  (* addition *)
  check_err "A(i,j) = B(i,j,k) * c(k)" "gemm"

let test_kernel_infer () =
  Alcotest.(check (option string)) "infer gemm" (Some "gemm")
    (Kernel_match.infer (P.parse_exn "A(i,j) = B(i,k) * C(k,j)"));
  Alcotest.(check (option string)) "infer none" None
    (Kernel_match.infer (P.parse_exn "A(i) = B(i) + C(i)"))

(* {2 Lowering golden structure} *)

let summa_plan () =
  let stmt = P.parse_exn "A(i,j) = B(i,k) * C(k,j)" in
  let shapes = [ ("A", [| 8; 8 |]); ("B", [| 8; 8 |]); ("C", [| 8; 8 |]) ] in
  let cin = Result.get_ok (Cin.of_stmt stmt ~shapes) in
  let cin =
    Result.get_ok
      (Schedule.apply_all cin
         [
           Schedule.Distribute_onto
             {
               targets = [ "i"; "j" ];
               dist = [ "io"; "jo" ];
               local = [ "ii"; "ji" ];
               grid = [| 2; 2 |];
             };
           Schedule.Split ("k", "ko", "ki", 4);
           Schedule.Reorder [ "ko"; "ii"; "ji"; "ki" ];
           Schedule.Communicate ([ "A" ], "jo");
           Schedule.Communicate ([ "B"; "C" ], "ko");
         ])
  in
  Result.get_ok (Lower.lower cin ~shapes)

let test_lower_summa_structure () =
  let prog = summa_plan () in
  let vars, dims = Taskir.launch prog in
  Alcotest.(check (list string)) "launch vars" [ "io"; "jo" ] vars;
  Alcotest.(check (array int)) "launch dims" [| 2; 2 |] dims;
  let s = Taskir.to_string prog in
  Alcotest.(check bool) "mentions launch" true
    (Astring_contains.contains s "index_task_launch (io, jo)");
  Alcotest.(check bool) "A ensured" true (Astring_contains.contains s "ensure A");
  Alcotest.(check bool) "seq ko" true (Astring_contains.contains s "for ko in [0, 2)")

let test_lower_rejects_inner_distribute () =
  let stmt = P.parse_exn "A(i,j) = B(i,k) * C(k,j)" in
  let shapes = [ ("A", [| 8; 8 |]); ("B", [| 8; 8 |]); ("C", [| 8; 8 |]) ] in
  let cin = Result.get_ok (Cin.of_stmt stmt ~shapes) in
  let cin = Result.get_ok (Schedule.apply_all cin [ Schedule.Distribute [ "j" ] ]) in
  match Lower.lower cin ~shapes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "distributed loop under sequential loop must be rejected"

let test_lower_default_communicate () =
  let stmt = P.parse_exn "A(i,j) = B(i,k) * C(k,j)" in
  let shapes = [ ("A", [| 4; 4 |]); ("B", [| 4; 4 |]); ("C", [| 4; 4 |]) ] in
  let cin = Result.get_ok (Cin.of_stmt stmt ~shapes) in
  let prog = Result.get_ok (Lower.lower cin ~shapes) in
  (* No schedule at all: a single task, ensures at the leaf. *)
  let vars, _ = Taskir.launch prog in
  Alcotest.(check (list string)) "no launch vars" [] vars;
  let s = Taskir.to_string prog in
  Alcotest.(check bool) "all tensors ensured" true
    (Astring_contains.contains s "ensure A"
    && Astring_contains.contains s "ensure B"
    && Astring_contains.contains s "ensure C")

let suites =
  [
    ( "einsum parser",
      [
        Alcotest.test_case "gemm" `Quick test_parse_gemm;
        Alcotest.test_case "scalar" `Quick test_parse_scalar;
        Alcotest.test_case "accum/sum" `Quick test_parse_accum_and_sum;
        Alcotest.test_case "mttkrp" `Quick test_parse_mttkrp;
        Alcotest.test_case "precedence" `Quick test_parse_parens_precedence;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "eval" `Quick test_eval;
      ] );
    ( "typecheck",
      [
        Alcotest.test_case "ok" `Quick test_typecheck_ok;
        Alcotest.test_case "errors" `Quick test_typecheck_errors;
      ] );
    ( "provenance",
      [
        Alcotest.test_case "divide" `Quick test_divide_intervals;
        Alcotest.test_case "split" `Quick test_split_intervals;
        Alcotest.test_case "guards" `Quick test_guards;
        Alcotest.test_case "rotate value" `Quick test_rotate_value;
        Alcotest.test_case "rotate bijection" `Quick test_rotate_is_time_permutation;
        Alcotest.test_case "fuse" `Quick test_fuse_intervals;
        Alcotest.test_case "nested divide" `Quick test_nested_divide;
        Alcotest.test_case "derives_from" `Quick test_derives_from;
        Alcotest.test_case "errors" `Quick test_provenance_errors;
      ] );
    ( "kernel match",
      [
        Alcotest.test_case "matches" `Quick test_kernel_match;
        Alcotest.test_case "rejects" `Quick test_kernel_match_rejects;
        Alcotest.test_case "infer" `Quick test_kernel_infer;
      ] );
    ( "lower",
      [
        Alcotest.test_case "summa structure" `Quick test_lower_summa_structure;
        Alcotest.test_case "rejects inner distribute" `Quick test_lower_rejects_inner_distribute;
        Alcotest.test_case "default communicate" `Quick test_lower_default_communicate;
      ] );
  ]
