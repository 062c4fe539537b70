module Api = Distal.Api
module Machine = Api.Machine
module M = Distal_algorithms.Matmul
module H = Distal_algorithms.Higher_order
module Cs = Distal_algorithms.Cosma_scheduler
module Stats = Api.Stats

let validate name (r : (M.t, string) result) =
  match r with
  | Error e -> Alcotest.failf "%s construction failed: %s" name e
  | Ok alg -> (
      match Api.validate alg.M.plan with
      | Ok () -> alg
      | Error e -> Alcotest.failf "%s validation failed: %s" name e)

let test_summa () = ignore (validate "summa" (M.summa ~n:8 ~machine:(Machine.grid [| 2; 2 |]) ()))
let test_cannon () = ignore (validate "cannon" (M.cannon ~n:9 ~machine:(Machine.grid [| 3; 3 |])))
let test_pumma () = ignore (validate "pumma" (M.pumma ~n:8 ~machine:(Machine.grid [| 2; 2 |])))

let test_johnson_overdecomposed () =
  (* 8 virtual tasks folded onto 2 physical processors must still be
     correct. *)
  ignore
    (validate "johnson over-decomposed"
       (M.johnson ~virtual_cube:[| 2; 2; 2 |] ~n:8 ~machine:(Machine.grid [| 2 |]) ()))

let test_johnson () =
  ignore (validate "johnson" (M.johnson ~n:8 ~machine:(Machine.grid [| 2; 2; 2 |]) ()))

let test_solomonik () =
  ignore (validate "solomonik" (M.solomonik ~n:8 ~machine:(Machine.grid [| 2; 2; 2 |])))

let test_cosma () =
  ignore (validate "cosma" (M.cosma ~n:8 ~machine:(Machine.grid [| 2; 2; 2 |])))

let test_cosma_degenerate_2d () =
  ignore (validate "cosma 2d" (M.cosma ~n:8 ~machine:(Machine.grid [| 2; 2; 1 |])))

let test_rectangular_2d_algorithms () =
  List.iter
    (fun (name, f) ->
      ignore (validate (name ^ " 2x4") (f ~n:8 ~machine:(Machine.grid [| 2; 4 |]))))
    M.all_2d

let test_wrong_machine_rejected () =
  (match M.johnson ~n:8 ~machine:(Machine.grid [| 2; 2 |]) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "johnson on a 2-D machine must be rejected");
  match M.summa ~n:8 ~machine:(Machine.grid [| 2; 2; 2 |]) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "summa on a 3-D machine must be rejected"

let test_cannon_beats_summa_on_comm_pattern () =
  (* The systolic rotation must remove the broadcasts: Cannon's B and C
     tiles each have a single receiver per step, so at equal volume its
     modeled time is no worse than SUMMA's (§7.1.2). *)
  let machine = Machine.grid ~kind:Machine.Gpu ~mem_per_proc:16e9 [| 4; 4 |] in
  let summa = Result.get_ok (M.summa ~chunks_per_tile:1 ~n:64 ~machine ()) in
  let cannon = Result.get_ok (M.cannon ~n:64 ~machine) in
  let ts = (Api.estimate summa.M.plan).Stats.time in
  let tc = (Api.estimate cannon.M.plan).Stats.time in
  Alcotest.(check bool) "cannon <= summa" true (tc <= ts +. 1e-12)

let test_johnson_replication_uses_memory () =
  let m2d = Machine.grid [| 4; 4; 1 |] in
  let m3d = Machine.grid [| 2; 2; 4 |] in
  let flat = Result.get_ok (M.cosma ~n:32 ~machine:m2d) in
  let deep = Result.get_ok (M.cosma ~n:32 ~machine:m3d) in
  let pf = (Api.estimate flat.M.plan).Stats.peak_mem in
  let pd = (Api.estimate deep.M.plan).Stats.peak_mem in
  Alcotest.(check bool) "k-split uses more memory per proc" true (pd > pf)

(* {2 COSMA scheduler} *)

let test_cosma_scheduler_factor_pairs () =
  Alcotest.(check (list (pair int int))) "pairs of 12"
    [ (1, 12); (2, 6); (3, 4); (4, 3); (6, 2); (12, 1) ]
    (Cs.factor_pairs 12);
  Alcotest.(check (pair int int)) "best pair 12" (3, 4) (Cs.best_pair 12);
  Alcotest.(check (pair int int)) "best pair 16" (4, 4) (Cs.best_pair 16)

let test_cosma_scheduler_cube () =
  (* With plentiful memory and a cube-friendly processor count, the
     decomposition goes 3-D. *)
  let d = Cs.find ~procs:64 ~m:4096 ~n:4096 ~k:4096 ~mem_per_proc:256e9 in
  let g1, g2, g3 = d.Cs.grid in
  Alcotest.(check int) "uses all procs" 64 (g1 * g2 * g3);
  Alcotest.(check bool) "k-split chosen" true (g3 > 1)

let test_cosma_scheduler_memory_limited () =
  (* With tiny memory the k-replication no longer fits: it falls back to
     the balanced 2-D grid. *)
  let d = Cs.find ~procs:16 ~m:4096 ~n:4096 ~k:4096 ~mem_per_proc:26e6 in
  let g1, g2, g3 = d.Cs.grid in
  Alcotest.(check int) "g3 = 1" 1 g3;
  Alcotest.(check (pair int int)) "balanced" (4, 4) (g1, g2)

let test_cosma_scheduler_grid_products () =
  List.iter
    (fun p ->
      let d = Cs.find ~procs:p ~m:1024 ~n:1024 ~k:1024 ~mem_per_proc:256e9 in
      let g1, g2, g3 = d.Cs.grid in
      Alcotest.(check int) (Printf.sprintf "product %d" p) p (g1 * g2 * g3))
    [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32 ]

(* {2 Higher-order kernels} *)

let validate_h name (r : (H.t, string) result) =
  match r with
  | Error e -> Alcotest.failf "%s construction failed: %s" name e
  | Ok h -> (
      match Api.validate h.H.plan with
      | Ok () -> h
      | Error e -> Alcotest.failf "%s validation failed: %s" name e)

let test_ttv () =
  let h = validate_h "ttv" (H.ttv ~i:8 ~j:3 ~k:4 ~machine:(Machine.grid [| 4 |])) in
  let s = Api.estimate h.H.plan in
  Alcotest.(check (float 0.0)) "ttv communication-free" 0.0
    (s.Stats.bytes_inter +. s.Stats.bytes_intra)

let test_innerprod () =
  ignore (validate_h "innerprod" (H.innerprod ~i:8 ~j:3 ~k:4 ~machine:(Machine.grid [| 4 |])))

let test_ttm () =
  let h = validate_h "ttm" (H.ttm ~i:8 ~j:3 ~k:4 ~l:5 ~machine:(Machine.grid [| 4 |])) in
  let s = Api.estimate h.H.plan in
  Alcotest.(check (float 0.0)) "ttm communication-free" 0.0
    (s.Stats.bytes_inter +. s.Stats.bytes_intra)

let test_mttkrp () =
  ignore
    (validate_h "mttkrp" (H.mttkrp ~i:8 ~j:6 ~k:6 ~l:4 ~machine:(Machine.grid [| 2; 2 |])))

let qcheck_all_algorithms_validate =
  QCheck.Test.make ~name:"fig9 algorithms validate on random grids" ~count:15
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (gx, gy) ->
      let n = 2 * gx * gy in
      let m2 = Machine.grid [| gx; gy |] in
      List.for_all
        (fun (_, f) ->
          match f ~n ~machine:m2 with
          | Error _ -> false
          | Ok (alg : M.t) -> Result.is_ok (Api.validate alg.M.plan))
        M.all_2d)

let suites =
  [
    ( "fig9 algorithms",
      [
        Alcotest.test_case "summa" `Quick test_summa;
        Alcotest.test_case "cannon" `Quick test_cannon;
        Alcotest.test_case "pumma" `Quick test_pumma;
        Alcotest.test_case "johnson" `Quick test_johnson;
        Alcotest.test_case "johnson over-decomposed" `Quick test_johnson_overdecomposed;
        Alcotest.test_case "solomonik 2.5d" `Quick test_solomonik;
        Alcotest.test_case "cosma" `Quick test_cosma;
        Alcotest.test_case "cosma 2d degenerate" `Quick test_cosma_degenerate_2d;
        Alcotest.test_case "rectangular grids" `Quick test_rectangular_2d_algorithms;
        Alcotest.test_case "machine shape rejected" `Quick test_wrong_machine_rejected;
        Alcotest.test_case "cannon vs summa comm" `Quick test_cannon_beats_summa_on_comm_pattern;
        Alcotest.test_case "replication memory" `Quick test_johnson_replication_uses_memory;
        QCheck_alcotest.to_alcotest qcheck_all_algorithms_validate;
      ] );
    ( "cosma scheduler",
      [
        Alcotest.test_case "factor pairs" `Quick test_cosma_scheduler_factor_pairs;
        Alcotest.test_case "cube decomposition" `Quick test_cosma_scheduler_cube;
        Alcotest.test_case "memory limited" `Quick test_cosma_scheduler_memory_limited;
        Alcotest.test_case "grid products" `Quick test_cosma_scheduler_grid_products;
      ] );
    ( "higher order",
      [
        Alcotest.test_case "ttv" `Quick test_ttv;
        Alcotest.test_case "innerprod" `Quick test_innerprod;
        Alcotest.test_case "ttm" `Quick test_ttm;
        Alcotest.test_case "mttkrp" `Quick test_mttkrp;
      ] );
  ]
