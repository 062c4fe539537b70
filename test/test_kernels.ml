(* The leaf kernel registry (lib/tensor/kernel_registry): every
   implementation tier must compute the reference contraction, the tiled
   tier bit-identically to the evaluator's accumulation order, and the
   dispatch/diagnostic surfaces (shape errors, flops pricing, calibrated
   rates) must behave as documented. *)

module Kreg = Distal_tensor.Kernel_registry
module Dense = Distal_tensor.Dense
module Kernels = Distal_tensor.Kernels
module Cost = Distal_machine.Cost_model
module Calibrate = Distal_machine.Calibrate
module Rng = Distal_support.Rng
module Api = Distal.Api
module Machine = Api.Machine

let entry_of name = List.find (fun (e : Kreg.entry) -> e.name = name) Kreg.entries
let letters s = List.init (String.length s) (String.get s)

(* {2 Reference evaluation}

   The evaluator's accumulation order, straight from the kernel table:
   per output element, initialize the accumulator from the current output
   value, apply one multiply-add per reduction point in ascending
   canonical order (products folded left-associated), store back. The
   Tiled tier documents bit-identity against exactly this order. *)

let eval_reference ~kernel ~dims out factors =
  let e = entry_of kernel in
  let canon = Kreg.canonical_letters e in
  let idx = Array.make 128 0 in
  let ext ch = dims.(String.index canon ch) in
  let coords s = Array.init (String.length s) (fun i -> idx.(Char.code s.[i])) in
  let red = List.filter (fun ch -> not (String.contains e.lhs ch)) (letters canon) in
  let rec out_loop = function
    | ch :: rest ->
        for v = 0 to ext ch - 1 do
          idx.(Char.code ch) <- v;
          out_loop rest
        done
    | [] ->
        let acc = ref (Dense.get out (coords e.lhs)) in
        let rec red_loop = function
          | ch :: rest ->
              for v = 0 to ext ch - 1 do
                idx.(Char.code ch) <- v;
                red_loop rest
              done
          | [] ->
              let p =
                List.fold_left2
                  (fun acc f fac ->
                    match acc with
                    | None -> Some (Dense.get fac (coords f))
                    | Some a -> Some (a *. Dense.get fac (coords f)))
                  None e.factors factors
                |> Option.get
              in
              acc := !acc +. p
        in
        red_loop red;
        Dense.set out (coords e.lhs) !acc
  in
  out_loop (letters e.lhs)

let row_major_strides shape =
  let d = Array.length shape in
  let st = Array.make d 1 in
  for i = d - 2 downto 0 do
    st.(i) <- st.(i + 1) * shape.(i + 1)
  done;
  st

let full_view t =
  { Kreg.buf = Dense.unsafe_data t; off = 0; st = row_major_strides (Dense.shape t) }

let shape_of ~dims ~canon access =
  Array.init (String.length access) (fun i -> dims.(String.index canon access.[i]))

(* Random operands for [kernel] over canonical extents [dims]: the
   initial output is random too, so accumulate ([+=]) semantics are part
   of every property. *)
let operands rng ~kernel ~dims =
  let e = entry_of kernel in
  let canon = Kreg.canonical_letters e in
  let out = Dense.random rng (shape_of ~dims ~canon e.lhs) in
  let factors = List.map (fun f -> Dense.random rng (shape_of ~dims ~canon f)) e.factors in
  (out, factors)

let exactly_equal a b = Dense.shape a = Dense.shape b && Dense.max_abs_diff a b = 0.0

(* {2 Registry vs reference: QCheck equivalence}

   Random kernels and random canonical extents — including degenerate 0
   and 1 extents and shapes large enough to cross into the register-tiled
   [`Micro] tier — run through [run_views] and through [run_named],
   against the table-driven reference. *)

let gen_case =
  QCheck.make
    ~print:(fun (k, seed) -> Printf.sprintf "%s seed=%d" k seed)
    QCheck.Gen.(
      pair
        (oneofl Kreg.kernel_names)
        (int_range 0 1_000_000))

let random_dims rng ~kernel =
  let e = entry_of kernel in
  let rank = String.length (Kreg.canonical_letters e) in
  (* Mostly small non-square extents; occasional 0/1 degenerates and
     occasional large axes that clear the [`Micro] thresholds. *)
  Array.init rank (fun _ ->
      match Rng.int rng 8 with
      | 0 -> Rng.int rng 2 (* 0 or 1 *)
      | 1 | 2 -> 9 + Rng.int rng 16
      | _ -> 2 + Rng.int rng 6)

let qcheck_registry_matches_reference =
  QCheck.Test.make ~count:120 ~name:"run_views matches reference on random shapes"
    gen_case (fun (kernel, seed) ->
      let rng = Rng.create seed in
      let dims = random_dims rng ~kernel in
      let out, factors = operands rng ~kernel ~dims in
      let reference = Dense.copy out in
      eval_reference ~kernel ~dims reference factors;
      let tiled = Dense.copy out in
      Kreg.run_views ~kernel ~dims
        (Array.of_list (full_view tiled :: List.map full_view factors));
      if not (exactly_equal tiled reference) then
        QCheck.Test.fail_reportf "tiled differs from evaluator order: %s dims=[%s] diff=%g"
          kernel
          (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
          (Dense.max_abs_diff tiled reference);
      true)

let qcheck_run_named_matches_views =
  QCheck.Test.make ~count:60 ~name:"run_named agrees with run_views on whole operands"
    gen_case (fun (kernel, seed) ->
      let rng = Rng.create seed in
      let dims =
        (* run_named requires nonempty operands for shape unification. *)
        Array.map (fun d -> max 1 d) (random_dims rng ~kernel)
      in
      let out, factors = operands rng ~kernel ~dims in
      let via_views = Dense.copy out in
      Kreg.run_views ~kernel ~dims
        (Array.of_list (full_view via_views :: List.map full_view factors));
      let via_named = Dense.copy out in
      Kreg.run_named Kreg.Tiled ~kernel (via_named :: factors);
      if not (exactly_equal via_views via_named) then
        QCheck.Test.fail_reportf "run_named differs from run_views: %s" kernel;
      true)

(* Strided dispatch: operands embedded at an offset inside larger
   buffers must compute exactly what their contiguous extracts compute —
   the staged scalar path hands the registry exactly such windows. *)
let test_strided_views () =
  let rng = Rng.create 42 in
  let m, n, k = (13, 11, 17) in
  let big rows cols = Dense.random rng [| rows + 6; cols + 6 |] in
  let ba = big m n and bb = big m k and bc = big k n in
  let window t =
    let st = row_major_strides (Dense.shape t) in
    { Kreg.buf = Dense.unsafe_data t; off = (2 * st.(0)) + 3; st = [| st.(0); st.(1) |] }
  in
  let extract t rows cols =
    Dense.init [| rows; cols |] (fun ix ->
        Dense.get t [| ix.(0) + 2; ix.(1) + 3 |])
  in
  let a_ref = extract ba m n and b_ref = extract bb m k and c_ref = extract bc k n in
  Kreg.run_named Kreg.Tiled ~kernel:"gemm" [ a_ref; b_ref; c_ref ];
  Kreg.run_views ~kernel:"gemm" ~dims:[| m; n; k |]
    [| window ba; window bb; window bc |];
  let a_got = extract ba m n in
  Alcotest.(check (float 0.0)) "strided gemm exact" 0.0 (Dense.max_abs_diff a_got a_ref)

(* {2 Dispatch surfaces} *)

let contains s sub = Astring_contains.contains s sub

let test_shape_class () =
  Alcotest.(check bool) "small gemm is simple" true
    (Kreg.shape_class ~kernel:"gemm" ~dims:[| 4; 4; 4 |] = `Simple);
  Alcotest.(check bool) "large gemm is micro" true
    (Kreg.shape_class ~kernel:"gemm" ~dims:[| 64; 64; 64 |] = `Micro);
  Alcotest.(check bool) "innerprod always simple" true
    (Kreg.shape_class ~kernel:"innerprod" ~dims:[| 64; 64; 64 |] = `Simple);
  try
    ignore (Kreg.shape_class ~kernel:"bogus" ~dims:[| 1 |]);
    Alcotest.fail "unknown kernel must raise"
  with Invalid_argument msg ->
    Alcotest.(check bool) ("names the kernel: " ^ msg) true (contains msg "bogus")

let test_flops_table () =
  Alcotest.(check (float 0.0)) "gemm flops" (2.0 *. 24.0)
    (Kreg.flops ~kernel:"gemm" ~dims:[| 2; 3; 4 |]);
  Alcotest.(check (float 0.0)) "mttkrp flops" (3.0 *. 120.0)
    (Kreg.flops ~kernel:"mttkrp" ~dims:[| 2; 3; 4; 5 |]);
  (try
     ignore (Kreg.flops ~kernel:"bogus" ~dims:[| 1 |]);
     Alcotest.fail "unknown kernel must raise"
   with Invalid_argument _ -> ());
  try
    ignore (Kreg.flops ~kernel:"gemm" ~dims:[| 2; 3 |]);
    Alcotest.fail "wrong rank must raise"
  with Invalid_argument _ -> ()

(* Shape mismatches must carry the kernel name and the offending shapes —
   in both the reference kernels and the registry's named path. *)
let test_shape_diagnostics () =
  let m23 = Dense.create [| 2; 3 |] and m44 = Dense.create [| 4; 4 |] in
  (try
     Kernels.gemm ~a:m23 ~b:m44 ~c:m44;
     Alcotest.fail "Kernels.gemm mismatch must raise"
   with Invalid_argument msg ->
     Alcotest.(check bool) ("mentions gemm: " ^ msg) true (contains msg "gemm");
     Alcotest.(check bool) ("mentions shape: " ^ msg) true (contains msg "2x3"));
  (try
     Kreg.run_named Kreg.Tiled ~kernel:"gemm" [ m23; m44; m44 ];
     Alcotest.fail "run_named mismatch must raise"
   with Invalid_argument msg ->
     Alcotest.(check bool) ("mentions gemm: " ^ msg) true (contains msg "gemm"));
  try
    ignore (Kernels.flops "bogus" [| 1 |]);
    Alcotest.fail "Kernels.flops unknown must raise"
  with Invalid_argument msg ->
    Alcotest.(check bool) ("names the kernel: " ^ msg) true (contains msg "bogus")

(* {2 End-to-end: domains}

   The executor has one leaf dispatch: substituted leaves run the tiled
   microkernels, and staged scalar leaves matching a kernel pattern hand
   off to the same kernels with the evaluator's per-element accumulation
   order. Both paths must be bit-identical across domain counts and agree
   with the serial reference. *)

let gemm_problem ~machine ~n =
  Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
    ~tensors:
      [
        Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]";
        Api.tensor "B" [| n; n |] ~dist:"[x,y] -> [x,y]";
        Api.tensor "C" [| n; n |] ~dist:"[x,y] -> [x,y]";
      ]
    ()

let summa_schedule ~substitute =
  "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]);\n\
   split(k, ko, ki, 4); reorder(ko, ii, ji, ki);\n\
   communicate(A, jo); communicate({B,C}, ko)"
  ^ if substitute then ";\nsubstitute({ii,ji,ki}, gemm)" else ""

let test_domains_end_to_end () =
  let n = 12 in
  let machine = Machine.grid [| 2; 2 |] in
  let p = gemm_problem ~machine ~n in
  let scalar = Api.compile_script_exn p ~schedule:(summa_schedule ~substitute:false) in
  let named = Api.compile_script_exn p ~schedule:(summa_schedule ~substitute:true) in
  let data = Api.random_inputs scalar in
  let reference =
    Api.Exec.serial_reference scalar.Api.problem.Api.stmt
      ~shapes:[ ("A", [| n; n |]); ("B", [| n; n |]); ("C", [| n; n |]) ]
      ~data
  in
  List.iter
    (fun (path, plan) ->
      let out domains =
        Option.get (Api.run_exn ~mode:Api.Exec.Full ~domains plan ~data).Api.Exec.output
      in
      let first = out 1 and third = out 3 in
      Alcotest.(check bool)
        (path ^ " path domain-independent")
        true (exactly_equal first third);
      Alcotest.(check bool)
        (path ^ " path correct")
        true
        (Dense.approx_equal ~tol:1e-9 first reference))
    [ ("scalar", scalar); ("named", named) ]

(* {2 Cost model and calibration} *)

let test_leaf_rates () =
  let c = { Cost.cpu_distal with Cost.kernel_rates = [ ("gemm", 5e9) ] } in
  Alcotest.(check (float 0.0)) "measured rate" 5e9 (Cost.leaf_rate c ~kernel:"gemm");
  Alcotest.(check (float 0.0)) "fallback rate" c.Cost.compute_rate
    (Cost.leaf_rate c ~kernel:"ttv");
  let t = Cost.leaf_compute_time c ~kernel:"gemm" ~flops:5e9 ~bytes_touched:0.0 in
  Alcotest.(check (float 1e-9)) "flop-bound leaf second" 1.0 t;
  let t' = Cost.leaf_compute_time c ~kernel:"gemm" ~flops:1.0 ~bytes_touched:c.Cost.mem_bw in
  Alcotest.(check (float 1e-9)) "memory-bound leaf second" 1.0 t';
  Alcotest.(check bool) "rates enter the digest" false
    (Cost.digest Cost.cpu_distal = Cost.digest c);
  Alcotest.(check bool) "distinct rates, distinct digests" false
    (Cost.digest { c with Cost.kernel_rates = [ ("gemm", 6e9) ] } = Cost.digest c)

let test_calibrated_rates () =
  List.iter
    (fun k ->
      let r = Calibrate.kernel_rate k in
      Alcotest.(check bool)
        (Printf.sprintf "%s rate clamped (%g)" k r)
        true
        (r >= 1e7 && r <= 1e13))
    Kreg.kernel_names;
  let c = Calibrate.calibrated Cost.cpu_distal in
  Alcotest.(check int) "calibrated carries every kernel"
    (List.length Kreg.kernel_names)
    (List.length c.Cost.kernel_rates);
  try
    ignore (Calibrate.kernel_rate "bogus");
    Alcotest.fail "unknown kernel must raise"
  with Invalid_argument _ -> ()

let to_alcotest test =
  match Distal_support.Env.int_var "DISTAL_SEED" with
  | Some s -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| s |]) test
  | None -> QCheck_alcotest.to_alcotest test

let suites =
  [
    ( "kernel registry",
      [
        to_alcotest qcheck_registry_matches_reference;
        to_alcotest qcheck_run_named_matches_views;
        Alcotest.test_case "strided views" `Quick test_strided_views;
        Alcotest.test_case "shape class" `Quick test_shape_class;
        Alcotest.test_case "flops table" `Quick test_flops_table;
        Alcotest.test_case "shape diagnostics" `Quick test_shape_diagnostics;
        Alcotest.test_case "domains end to end" `Quick test_domains_end_to_end;
        Alcotest.test_case "leaf rates in the cost model" `Quick test_leaf_rates;
        Alcotest.test_case "calibrated kernel rates" `Quick test_calibrated_rates;
      ] );
  ]
