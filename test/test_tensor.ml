module Rect = Distal_tensor.Rect
module Dense = Distal_tensor.Dense
module Kernels = Distal_tensor.Kernels
module Rng = Distal_support.Rng

let rect lo hi = Rect.make ~lo ~hi

let test_rect_basics () =
  let r = rect [| 0; 2 |] [| 4; 6 |] in
  Alcotest.(check int) "volume" 16 (Rect.volume r);
  Alcotest.(check bool) "contains" true (Rect.contains r [| 3; 5 |]);
  Alcotest.(check bool) "not contains" false (Rect.contains r [| 4; 5 |]);
  Alcotest.(check string) "to_string" "[0,4)x[2,6)" (Rect.to_string r)

let test_rect_inter () =
  let a = rect [| 0; 0 |] [| 4; 4 |] and b = rect [| 2; 2 |] [| 6; 6 |] in
  let i = Rect.inter a b in
  Alcotest.(check string) "inter" "[2,4)x[2,4)" (Rect.to_string i);
  let disjoint = Rect.inter a (rect [| 5; 5 |] [| 6; 6 |]) in
  Alcotest.(check bool) "empty" true (Rect.is_empty disjoint)

let test_rect_hull_subset () =
  let a = rect [| 0; 0 |] [| 2; 2 |] and b = rect [| 3; 1 |] [| 5; 4 |] in
  let h = Rect.hull a b in
  Alcotest.(check string) "hull" "[0,5)x[0,4)" (Rect.to_string h);
  Alcotest.(check bool) "subset" true (Rect.subset a h);
  Alcotest.(check bool) "not subset" false (Rect.subset h a);
  let empty = rect [| 1; 1 |] [| 1; 1 |] in
  Alcotest.(check bool) "empty subset of anything" true (Rect.subset empty a)

let test_rect_iter () =
  let r = rect [| 1 |] [| 4 |] in
  let pts = ref [] in
  Rect.iter r (fun c -> pts := c.(0) :: !pts);
  Alcotest.(check (list int)) "points" [ 1; 2; 3 ] (List.rev !pts)

let test_rect_scalar () =
  let r = Rect.full [||] in
  Alcotest.(check int) "scalar volume" 1 (Rect.volume r);
  Alcotest.(check bool) "scalar nonempty" false (Rect.is_empty r)

let test_dense_get_set () =
  let t = Dense.create [| 2; 3 |] in
  Dense.set t [| 1; 2 |] 5.0;
  Alcotest.(check (float 0.0)) "get" 5.0 (Dense.get t [| 1; 2 |]);
  Alcotest.(check (float 0.0)) "other zero" 0.0 (Dense.get t [| 0; 0 |]);
  Alcotest.(check int) "bytes" 48 (Dense.bytes t)

let test_dense_accumulate () =
  let r = rect [| 1; 2 |] [| 3; 4 |] in
  let sub = Dense.init [| 2; 2 |] (fun c -> float_of_int (((c.(0) + 1) * 10) + c.(1) + 2)) in
  let dst = Dense.create [| 4; 4 |] in
  Dense.accumulate_into ~src:sub ~dst r;
  Alcotest.(check (float 0.0)) "into zeros" 23.0 (Dense.get dst [| 2; 3 |]);
  Dense.accumulate_into ~src:sub ~dst r;
  Alcotest.(check (float 0.0)) "accumulate" 46.0 (Dense.get dst [| 2; 3 |])

(* Out-of-bounds rects and mismatched shapes must raise Invalid_argument
   naming the operation, the rect and the shape — not trip an assert. *)
let test_dense_invalid_args () =
  let expect_invalid name needle f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        let mentions s =
          let n = String.length s and m = String.length msg in
          let rec go i = i + n <= m && (String.sub msg i n = s || go (i + 1)) in
          go 0
        in
        if not (mentions needle && mentions name) then
          Alcotest.failf "%s: message %S lacks %S" name msg needle
  in
  let t = Dense.init [| 4; 4 |] (fun c -> float_of_int (c.(0) + c.(1))) in
  let oob = rect [| 2; 2 |] [| 5; 4 |] in
  let sub = Dense.create [| 2; 2 |] in
  let inb = rect [| 0; 0 |] [| 2; 2 |] in
  expect_invalid "accumulate_into" "[2,5)x[2,4)" (fun () ->
      Dense.accumulate_into ~src:sub ~dst:t oob);
  (* Shape/extent mismatch: a 2x2 rect against a 3x1 source. *)
  let wrong = Dense.create [| 3; 1 |] in
  expect_invalid "accumulate_into" "3x1" (fun () ->
      Dense.accumulate_into ~src:wrong ~dst:t inb);
  (* of_buf needs prod(shape) elements. *)
  let b = Dense.unsafe_data (Dense.create [| 3 |]) in
  expect_invalid "of_buf" "2x3" (fun () -> Dense.of_buf b [| 2; 3 |]);
  (* And the happy paths still work on the same values. *)
  let v = Dense.of_buf b [| 3 |] in
  Dense.set v [| 1 |] 9.0;
  Alcotest.(check (float 0.0)) "of_buf shares storage" 9.0
    (Bigarray.Array1.get b 1)

(* Sub-box accumulation against a per-element reference, ranks 0-4. Per
   dimension the rect spans the whole extent, touches the upper edge,
   is one wide, is random, or is empty; an empty rect must leave the
   destination untouched. Every comparison is bit-exact. *)
let test_row_copies () =
  let rng = Rng.create 11 in
  let bits t = Dense.to_le_bytes t in
  let check op ~got ~want r =
    if not (Bytes.equal (bits got) (bits want)) then
      Alcotest.failf "%s differs from the per-element reference on %s" op (Rect.to_string r)
  in
  for case = 0 to 299 do
    let rank = case mod 5 in
    let shape = Array.init rank (fun _ -> 1 + Rng.int rng 5) in
    let bounds e =
      match Rng.int rng 5 with
      | 0 -> (0, e)
      | 1 -> (e - 1, e)
      | 2 ->
          let lo = Rng.int rng e in
          (lo, lo + 1)
      | 3 ->
          let lo = Rng.int rng e in
          (lo, lo + Rng.int rng (e - lo + 1))
      | _ ->
          let lo = Rng.int rng (e + 1) in
          (lo, lo)
    in
    let b = Array.map bounds shape in
    let r = rect (Array.map fst b) (Array.map snd b) in
    let local c = Array.mapi (fun d x -> x - (Array.map fst b).(d)) c in
    let big = Dense.random rng shape and small = Dense.random rng (Rect.extents r) in
    let got = Dense.copy big and want = Dense.copy big in
    Dense.accumulate_into ~src:small ~dst:got r;
    Rect.iter r (fun c -> Dense.add_at want c (Dense.get small (local c)));
    check "accumulate_into" ~got ~want r;
    if Rect.is_empty r then check "empty rect" ~got ~want:big r
  done

let test_dense_scalar () =
  let t = Dense.create [||] in
  Alcotest.(check int) "size" 1 (Dense.size t);
  Dense.add_at t [||] 2.5;
  Alcotest.(check (float 0.0)) "scalar value" 2.5 (Dense.get t [||])

let test_approx_equal () =
  let a = Dense.init [| 3 |] (fun c -> float_of_int c.(0)) in
  let b = Dense.init [| 3 |] (fun c -> float_of_int c.(0) +. 1e-12) in
  Alcotest.(check bool) "close" true (Dense.approx_equal a b);
  let c = Dense.init [| 3 |] (fun c -> float_of_int c.(0) +. 0.5) in
  Alcotest.(check bool) "far" false (Dense.approx_equal a c)

(* Naive per-element references for the kernels. *)
let naive_gemm a b c =
  let m = (Dense.shape a).(0) and n = (Dense.shape a).(1) in
  let k = (Dense.shape b).(1) in
  let out = Dense.copy a in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      for kk = 0 to k - 1 do
        Dense.add_at out [| i; j |] (Dense.get b [| i; kk |] *. Dense.get c [| kk; j |])
      done
    done
  done;
  out

let test_gemm () =
  let rng = Rng.create 1 in
  let b = Dense.random rng [| 5; 7 |] and c = Dense.random rng [| 7; 6 |] in
  let a = Dense.create [| 5; 6 |] in
  let expected = naive_gemm a b c in
  Kernels.gemm ~a ~b ~c;
  Alcotest.(check bool) "gemm matches naive" true (Dense.approx_equal a expected)

let test_gemm_accumulates () =
  let rng = Rng.create 2 in
  let b = Dense.random rng [| 3; 3 |] and c = Dense.random rng [| 3; 3 |] in
  let a = Dense.init [| 3; 3 |] (fun _ -> 1.0) in
  let expected = naive_gemm a b c in
  Kernels.gemm ~a ~b ~c;
  Alcotest.(check bool) "gemm += semantics" true (Dense.approx_equal a expected)

let test_gemv () =
  let rng = Rng.create 3 in
  let b = Dense.random rng [| 4; 5 |] and c = Dense.random rng [| 5 |] in
  let a = Dense.create [| 4 |] in
  Kernels.gemv ~a ~b ~c;
  for i = 0 to 3 do
    let expected = ref 0.0 in
    for k = 0 to 4 do
      expected := !expected +. (Dense.get b [| i; k |] *. Dense.get c [| k |])
    done;
    Alcotest.(check (float 1e-12)) "gemv row" !expected (Dense.get a [| i |])
  done

let test_ttv () =
  let rng = Rng.create 4 in
  let b = Dense.random rng [| 3; 4; 5 |] and c = Dense.random rng [| 5 |] in
  let a = Dense.create [| 3; 4 |] in
  Kernels.ttv ~a ~b ~c;
  let expected = ref 0.0 in
  for k = 0 to 4 do
    expected := !expected +. (Dense.get b [| 2; 3; k |] *. Dense.get c [| k |])
  done;
  Alcotest.(check (float 1e-12)) "ttv entry" !expected (Dense.get a [| 2; 3 |])

let test_ttm () =
  let rng = Rng.create 5 in
  let b = Dense.random rng [| 2; 3; 4 |] and c = Dense.random rng [| 4; 5 |] in
  let a = Dense.create [| 2; 3; 5 |] in
  Kernels.ttm ~a ~b ~c;
  let expected = ref 0.0 in
  for k = 0 to 3 do
    expected := !expected +. (Dense.get b [| 1; 2; k |] *. Dense.get c [| k; 4 |])
  done;
  Alcotest.(check (float 1e-12)) "ttm entry" !expected (Dense.get a [| 1; 2; 4 |])

let test_mttkrp () =
  let rng = Rng.create 6 in
  let b = Dense.random rng [| 2; 3; 4 |] in
  let c = Dense.random rng [| 3; 5 |] in
  let d = Dense.random rng [| 4; 5 |] in
  let a = Dense.create [| 2; 5 |] in
  Kernels.mttkrp ~a ~b ~c ~d;
  let expected = ref 0.0 in
  for j = 0 to 2 do
    for k = 0 to 3 do
      expected :=
        !expected
        +. Dense.get b [| 1; j; k |] *. Dense.get c [| j; 2 |] *. Dense.get d [| k; 2 |]
    done
  done;
  Alcotest.(check (float 1e-12)) "mttkrp entry" !expected (Dense.get a [| 1; 2 |])

let test_inner_product () =
  let x = Dense.init [| 2; 2 |] (fun c -> float_of_int (c.(0) + c.(1))) in
  let y = Dense.init [| 2; 2 |] (fun _ -> 2.0) in
  Alcotest.(check (float 1e-12)) "innerprod" 8.0 (Kernels.inner_product x y)

let test_flops () =
  Alcotest.(check (float 0.0)) "gemm flops" 2000.0 (Kernels.flops "gemm" [| 10; 10; 10 |]);
  Alcotest.(check (float 0.0)) "mttkrp flops" 3000.0 (Kernels.flops "mttkrp" [| 10; 10; 10 |])

let qcheck_accumulate_roundtrip =
  QCheck.Test.make ~name:"sub-box roundtrip" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (h, w) ->
      let rng = Rng.create ((h * 17) + w) in
      let t = Dense.random rng [| h; w |] in
      let r = Rect.full [| h; w |] in
      let copy = Dense.create [| h; w |] in
      Dense.accumulate_into ~src:t ~dst:copy r;
      Dense.approx_equal t copy)

let suites =
  [
    ( "rect",
      [
        Alcotest.test_case "basics" `Quick test_rect_basics;
        Alcotest.test_case "inter" `Quick test_rect_inter;
        Alcotest.test_case "hull/subset" `Quick test_rect_hull_subset;
        Alcotest.test_case "iter" `Quick test_rect_iter;
        Alcotest.test_case "scalar" `Quick test_rect_scalar;
      ] );
    ( "dense",
      [
        Alcotest.test_case "get/set" `Quick test_dense_get_set;
        Alcotest.test_case "accumulate_into" `Quick test_dense_accumulate;
        Alcotest.test_case "invalid args" `Quick test_dense_invalid_args;
        Alcotest.test_case "row copies" `Quick test_row_copies;
        Alcotest.test_case "scalar" `Quick test_dense_scalar;
        Alcotest.test_case "approx_equal" `Quick test_approx_equal;
        QCheck_alcotest.to_alcotest qcheck_accumulate_roundtrip;
      ] );
    ( "kernels",
      [
        Alcotest.test_case "gemm" `Quick test_gemm;
        Alcotest.test_case "gemm accumulates" `Quick test_gemm_accumulates;
        Alcotest.test_case "gemv" `Quick test_gemv;
        Alcotest.test_case "ttv" `Quick test_ttv;
        Alcotest.test_case "ttm" `Quick test_ttm;
        Alcotest.test_case "mttkrp" `Quick test_mttkrp;
        Alcotest.test_case "inner product" `Quick test_inner_product;
        Alcotest.test_case "flops" `Quick test_flops;
      ] );
  ]
