(* Soundness of the bounds analysis (§6.2): the footprint rect computed at
   any communicate point must contain every coordinate the enclosed
   iterations actually access. The executor would crash on a violation
   (local-buffer indexing out of range), but these tests check the
   property directly and tightly. *)

module P = Distal_ir.Einsum_parser
module Cin = Distal_ir.Cin
module S = Distal_ir.Schedule
module Bounds = Distal_ir.Bounds
module Provenance = Distal_ir.Provenance
module Rect = Distal_tensor.Rect
module Ints = Distal_support.Ints

let shapes = [ ("A", [| 10; 10 |]); ("B", [| 10; 10 |]); ("C", [| 10; 10 |]) ]

let scheduled cmds =
  let cin = Result.get_ok (Cin.of_stmt (P.parse_exn "A(i,j) = B(i,k) * C(k,j)") ~shapes) in
  Result.get_ok (S.apply_all cin cmds)

(* Enumerate all guard-passing points below a partial assignment and check
   each access coordinate lies inside the claimed footprint. *)
let check_soundness (cin : Cin.t) ~bound_prefix =
  let prov = cin.Cin.prov in
  let loops = Cin.loop_vars cin in
  let bound = List.filteri (fun i _ -> i < bound_prefix) loops in
  let free = List.filteri (fun i _ -> i >= bound_prefix) loops in
  let bound_dims = Array.of_list (List.map (Provenance.extent prov) bound) in
  let free_dims = Array.of_list (List.map (Provenance.extent prov) free) in
  Ints.iter_box bound_dims (fun outer ->
      let outer_env = List.mapi (fun i v -> (v, outer.(i))) bound in
      let env v = List.assoc_opt v outer_env in
      let rects =
        List.map
          (fun tn ->
            ( tn,
              Bounds.tensor_footprint prov ~env ~stmt:cin.Cin.stmt
                ~shape:(List.assoc tn shapes) tn ))
          [ "A"; "B"; "C" ]
      in
      Ints.iter_box free_dims (fun inner ->
          let full_env_list = outer_env @ List.mapi (fun i v -> (v, inner.(i))) free in
          let fenv v = List.assoc_opt v full_env_list in
          if Provenance.guards_fn prov fenv then
            List.iter
              (fun (a : Distal_ir.Expr.access) ->
                let coord =
                  Array.of_list
                    (List.map
                       (fun v -> Option.get (Provenance.raw_point_fn prov v fenv))
                       a.indices)
                in
                let rect = List.assoc a.tensor rects in
                if not (Rect.contains rect coord) then
                  Alcotest.failf "access %s%s escapes footprint %s (env prefix %d)"
                    a.tensor (Ints.to_string coord) (Rect.to_string rect) bound_prefix)
              (Distal_ir.Expr.stmt_accesses cin.Cin.stmt)))

let summa_cmds =
  [
    S.Distribute_onto
      { targets = [ "i"; "j" ]; dist = [ "io"; "jo" ]; local = [ "ii"; "ji" ];
        grid = [| 3; 2 |] };
    S.Split ("k", "ko", "ki", 4);
    S.Reorder [ "ko"; "ii"; "ji"; "ki" ];
  ]

let test_summa_sound () =
  let cin = scheduled summa_cmds in
  (* At every aggregation depth. *)
  for prefix = 0 to 3 do
    check_soundness cin ~bound_prefix:prefix
  done

let test_rotated_sound () =
  let cin =
    scheduled
      [
        S.Distribute_onto
          { targets = [ "i"; "j" ]; dist = [ "io"; "jo" ]; local = [ "ii"; "ji" ];
            grid = [| 3; 3 |] };
        S.Divide ("k", "ko", "ki", 3);
        S.Reorder [ "ko"; "ii"; "ji"; "ki" ];
        S.Rotate { target = "ko"; by = [ "io"; "jo" ]; result = "kos" };
      ]
  in
  for prefix = 0 to 3 do
    check_soundness cin ~bound_prefix:prefix
  done

let test_collapsed_sound () =
  let cin = scheduled [ S.Collapse ("i", "j", "f") ] in
  for prefix = 0 to 2 do
    check_soundness cin ~bound_prefix:prefix
  done

let test_tightness_interior () =
  (* For an interior block the footprint is exact: the SUMMA B footprint
     under (io=1, ko=0) is rows [4,8) x k [0,4) with grid 3x2 over 10:
     block size ceil(10/3) = 4. *)
  let cin = scheduled summa_cmds in
  let env v = List.assoc_opt v [ ("io", 1); ("jo", 0); ("ko", 0) ] in
  let r =
    Bounds.tensor_footprint cin.Cin.prov ~env ~stmt:cin.Cin.stmt ~shape:[| 10; 10 |] "B"
  in
  Alcotest.(check string) "exact interior footprint" "[4,8)x[0,4)" (Rect.to_string r)

let test_boundary_clipping () =
  (* The last row block of a 10-row tensor over 3 parts is [8,10). *)
  let cin = scheduled summa_cmds in
  let env v = List.assoc_opt v [ ("io", 2) ] in
  let r =
    Bounds.tensor_footprint cin.Cin.prov ~env ~stmt:cin.Cin.stmt ~shape:[| 10; 10 |] "B"
  in
  Alcotest.(check string) "clipped to the tensor" "[8,10)x[0,10)" (Rect.to_string r)

let qcheck_random_divide_split_sound =
  QCheck.Test.make ~name:"bounds sound under random divide/split" ~count:60
    QCheck.(quad (int_range 1 4) (int_range 1 4) (int_range 1 5) (int_range 0 2))
    (fun (gi, gj, chunk, prefix) ->
      let cin =
        scheduled
          [
            S.Distribute_onto
              { targets = [ "i"; "j" ]; dist = [ "io"; "jo" ]; local = [ "ii"; "ji" ];
                grid = [| gi; gj |] };
            S.Split ("k", "ko", "ki", chunk);
            S.Reorder [ "ko"; "ii"; "ji"; "ki" ];
          ]
      in
      check_soundness cin ~bound_prefix:prefix;
      true)

let suites =
  [
    ( "bounds",
      [
        Alcotest.test_case "summa sound at all depths" `Quick test_summa_sound;
        Alcotest.test_case "rotation sound" `Quick test_rotated_sound;
        Alcotest.test_case "collapse sound" `Quick test_collapsed_sound;
        Alcotest.test_case "interior tightness" `Quick test_tightness_interior;
        Alcotest.test_case "boundary clipping" `Quick test_boundary_clipping;
        QCheck_alcotest.to_alcotest qcheck_random_divide_split_sound;
      ] );
  ]
