module D = Distal_ir.Distnot
module Machine = Distal_machine.Machine
module Rect = Distal_tensor.Rect
module Ints = Distal_support.Ints

let parse = D.parse_exn

let test_parse_roundtrip () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string) s expected (D.to_string (parse s)))
    [
      ("[x,y] -> [x,y]", "[x,y] -> [x,y]");
      ("T[x,y] -> M[x,0,*]", "[x,y] -> [x,0,*]");
      ("[x,y] -> [x]", "[x,y] -> [x]");
      ("[x,y] -> [x,y]; [z,w] -> [z]", "[x,y] -> [x,y]; [z,w] -> [z]");
      ("a[] -> [0]", "[] -> [0]");
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match D.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ "[x,y]"; "[x,y] -> "; "[x y] -> [x]"; "x,y -> x" ]

let test_validate () =
  let m = Machine.grid [| 2; 2 |] in
  let ok d = Alcotest.(check bool) d true (Result.is_ok (D.validate (parse d) ~tensor_rank:2 ~machine:m)) in
  let err ?(rank = 2) ?(machine = m) d =
    match D.validate (parse d) ~tensor_rank:rank ~machine with
    | Ok () -> Alcotest.failf "expected %s to be invalid" d
    | Error _ -> ()
  in
  ok "[x,y] -> [x,y]";
  ok "[x,y] -> [y,x]";
  ok "[x,y] -> [x,*]";
  ok "[x,y] -> [0,x]";
  err "[x] -> [x,y]" (* |X| != rank *);
  err "[x,y] -> [x]" (* level dims don't cover the machine *);
  err "[x,y] -> [z,x]" (* z not a tensor dim *);
  err "[x,x] -> [x,y]" (* duplicate names *);
  err "[x,y] -> [x,5]" (* fixed coordinate out of range *)

(* The paper's running example (§3.2): T 2x2, M 2x2x2, T[x,y] -> M[x,y,*]. *)
let test_paper_running_example () =
  let lvl = List.hd (parse "[x,y] -> [x,y,*]") in
  let shape = [| 2; 2 |] and mdims = [| 2; 2; 2 |] in
  (* P maps each coordinate to its own color. *)
  List.iter
    (fun (pt, color) ->
      Alcotest.(check (array int))
        (Printf.sprintf "P(%d,%d)" pt.(0) pt.(1))
        color
        (D.color_of_point lvl ~shape ~mdims pt))
    [
      ([| 0; 0 |], [| 0; 0 |]);
      ([| 0; 1 |], [| 0; 1 |]);
      ([| 1; 0 |], [| 1; 0 |]);
      ([| 1; 1 |], [| 1; 1 |]);
    ];
  (* F expands each color across the broadcast third dimension. *)
  let procs = D.procs_of_color lvl ~mdims [| 0; 1 |] in
  Alcotest.(check int) "two owners" 2 (List.length procs);
  Alcotest.(check bool) "owners expanded" true
    (List.mem [| 0; 1; 0 |] procs && List.mem [| 0; 1; 1 |] procs)

let test_fix_restricts_owners () =
  let lvl = List.hd (parse "[x,y] -> [x,y,0]") in
  let procs = D.procs_of_color lvl ~mdims:[| 2; 2; 2 |] [| 1; 1 |] in
  Alcotest.(check (list (array int))) "single owner on the face" [ [| 1; 1; 0 |] ] procs

(* Fig. 5 examples on a 100x100 matrix. *)
let test_fig5_row_partition () =
  let m = Machine.grid [| 4 |] in
  let d = parse "[x,y] -> [x]" in
  let r = Option.get (Tile_ref.rect_of_proc d ~shape:[| 100; 100 |] ~machine:m [| 1 |]) in
  Alcotest.(check string) "row block spans columns" "[25,50)x[0,100)" (Rect.to_string r)

let test_fig5_col_partition () =
  let m = Machine.grid [| 4 |] in
  let d = parse "[x,y] -> [y]" in
  let r = Option.get (Tile_ref.rect_of_proc d ~shape:[| 100; 100 |] ~machine:m [| 3 |]) in
  Alcotest.(check string) "column block spans rows" "[0,100)x[75,100)" (Rect.to_string r)

let test_fig5_tile_partition () =
  let m = Machine.grid [| 2; 2 |] in
  let d = parse "[x,y] -> [x,y]" in
  let r = Option.get (Tile_ref.rect_of_proc d ~shape:[| 100; 100 |] ~machine:m [| 1; 0 |]) in
  Alcotest.(check string) "tile" "[50,100)x[0,50)" (Rect.to_string r)

let test_fig5_fixed_face () =
  let m = Machine.grid [| 2; 2; 2 |] in
  let d = parse "[x,y] -> [x,y,0]" in
  Alcotest.(check bool) "off-face proc owns nothing" true
    (Tile_ref.rect_of_proc d ~shape:[| 8; 8 |] ~machine:m [| 0; 0; 1 |] = None);
  Alcotest.(check bool) "on-face proc owns a tile" true
    (Tile_ref.rect_of_proc d ~shape:[| 8; 8 |] ~machine:m [| 0; 0; 0 |] <> None)

let test_fig5_broadcast_replicates () =
  let m = Machine.grid [| 2; 2; 2 |] in
  let d = parse "[x,y] -> [x,y,*]" in
  let r0 = Option.get (Tile_ref.rect_of_proc d ~shape:[| 8; 8 |] ~machine:m [| 0; 1; 0 |]) in
  let r1 = Option.get (Tile_ref.rect_of_proc d ~shape:[| 8; 8 |] ~machine:m [| 0; 1; 1 |]) in
  Alcotest.(check bool) "same tile on both" true (Rect.equal r0 r1)

let check_tiles_cover_and_disjoint d shape machine =
  let tiles = Tile_ref.tiles d ~shape ~machine in
  let total = List.fold_left (fun acc (r, _) -> acc + Rect.volume r) 0 tiles in
  Alcotest.(check int) "tiles cover the tensor" (Ints.prod shape) total;
  List.iteri
    (fun i (r1, _) ->
      List.iteri
        (fun j (r2, _) ->
          if i < j then
            Alcotest.(check bool) "tiles disjoint" false (Rect.overlaps r1 r2))
        tiles)
    tiles

let test_tiles_properties () =
  check_tiles_cover_and_disjoint (parse "[x,y] -> [x,y]") [| 7; 9 |] (Machine.grid [| 2; 3 |]);
  check_tiles_cover_and_disjoint (parse "[x,y] -> [y,x]") [| 8; 8 |] (Machine.grid [| 2; 2 |]);
  check_tiles_cover_and_disjoint (parse "[x,y] -> [x,*]") [| 10; 4 |] (Machine.grid [| 3; 2 |]);
  check_tiles_cover_and_disjoint (parse "[x,y,z] -> [y]") [| 4; 5; 6 |] (Machine.grid [| 2 |])

let test_transposed_mapping () =
  (* [x,y] -> [y,x]: the SECOND machine dim partitions rows. *)
  let m = Machine.grid [| 2; 2 |] in
  let d = parse "[x,y] -> [y,x]" in
  let r = Option.get (Tile_ref.rect_of_proc d ~shape:[| 8; 8 |] ~machine:m [| 1; 0 |]) in
  Alcotest.(check string) "transposed tile" "[0,4)x[4,8)" (Rect.to_string r)

let test_hierarchical_tiles () =
  (* 2x2 node grid, 2 GPUs per node: outer 2-D tiling, inner row split. *)
  let m = Machine.hierarchical ~node_dims:[| 2; 2 |] ~proc_dims:[| 2 |] ~kind:Machine.Gpu ~mem_per_proc:16e9 in
  let d = parse "[x,y] -> [x,y]; [z,w] -> [z]" in
  Alcotest.(check bool) "valid" true
    (Result.is_ok (D.validate d ~tensor_rank:2 ~machine:m));
  let r = Option.get (Tile_ref.rect_of_proc d ~shape:[| 8; 8 |] ~machine:m [| 1; 0; 1 |]) in
  Alcotest.(check string) "inner row half of outer tile" "[6,8)x[0,4)" (Rect.to_string r);
  check_tiles_cover_and_disjoint d [| 8; 8 |] m

let test_scalar_distribution () =
  let m = Machine.grid [| 4 |] in
  let d = parse "[] -> [0]" in
  let tiles = Tile_ref.tiles d ~shape:[||] ~machine:m in
  Alcotest.(check int) "one scalar tile" 1 (List.length tiles);
  let _, owners = List.hd tiles in
  Alcotest.(check (list (array int))) "owner proc 0" [ [| 0 |] ] owners

let test_uneven_blocks () =
  (* 10 elements over 4 processors: blocks of 3,3,3,1. *)
  let m = Machine.grid [| 4 |] in
  let d = parse "[x] -> [x]" in
  let widths =
    List.map
      (fun p ->
        match Tile_ref.rect_of_proc d ~shape:[| 10 |] ~machine:m [| p |] with
        | Some r -> Rect.volume r
        | None -> 0)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "block sizes" [ 3; 3; 3; 1 ] widths;
  check_tiles_cover_and_disjoint d [| 10 |] m

let test_lower_to_cin_example () =
  (* §5.3's worked example: T[x,y] -> M[x] gives
     forall xo forall xi forall y ... divide(x,...), distribute(xo),
     communicate(T, xo). *)
  (* Fresh names count up from one shared counter: the first name
     lowering draws is one past this probe's. *)
  let probe = Distal_ir.Ident.fresh "probe" in
  let next = int_of_string (String.sub probe 6 (String.length probe - 6)) + 1 in
  let m = Machine.grid [| 4 |] in
  let lvl = List.hd (parse "[x,y] -> [x]") in
  let cin =
    Result.get_ok (D.lower_to_cin lvl ~tensor:"T" ~shape:[| 8; 8 |] ~machine:m)
  in
  let s = Distal_ir.Cin.to_string cin in
  Alcotest.(check bool) "distributed xo first" true
    (Astring_contains.contains s (Printf.sprintf "forall xo'%d[dist; comm T]" next));
  Alcotest.(check bool) "accesses T" true (Astring_contains.contains s "T(x,y)")

let qcheck_tiles_cover =
  QCheck.Test.make ~name:"tiles cover and are disjoint" ~count:60
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 12) (int_range 1 12))
    (fun (g1, g2, s1, s2) ->
      let machine = Machine.grid [| g1; g2 |] in
      let shape = [| s1; s2 |] in
      let d = parse "[x,y] -> [x,y]" in
      let tiles = Tile_ref.tiles d ~shape ~machine in
      let total = List.fold_left (fun acc (r, _) -> acc + Rect.volume r) 0 tiles in
      total = s1 * s2)

(* [tiles] against a plain per-rect merge of every processor's tiles, over
   random flat and two-level distributions (blocked, cyclic, fixed and
   broadcast axes): same tiles, same order, same owners. *)
let test_tiles_match_merge () =
  let merge d ~shape ~machine =
    let acc = ref [] in
    List.iter
      (fun proc ->
        List.iter
          (fun r ->
            match List.find_opt (fun (r', _) -> Rect.equal r r') !acc with
            | Some (_, owners) -> owners := proc :: !owners
            | None -> acc := (r, ref [ proc ]) :: !acc)
          (Tile_ref.rects_of_proc d ~shape ~machine proc))
      (Machine.proc_coords machine);
    List.rev_map (fun (r, owners) -> (r, List.rev !owners)) !acc
  in
  for seed = 0 to 199 do
    let rng = Distal_support.Rng.create seed in
    let rank = 1 + Distal_support.Rng.int rng 3 in
    let shape = Array.init rank (fun _ -> 1 + Distal_support.Rng.int rng 9) in
    let mdims = Array.init 2 (fun _ -> 1 + Distal_support.Rng.int rng 3) in
    let d =
      if seed mod 2 = 0 then Test_oracle.gen_dist2 rng ~rank ~mdims
      else Test_oracle.gen_dist rng ~rank ~mdims
    in
    let machine = Machine.grid mdims in
    let show ts = String.concat " " (List.map (fun (r, _) -> Rect.to_string r) ts) in
    let got = Tile_ref.tiles d ~shape ~machine and want = merge d ~shape ~machine in
    if
      List.length got <> List.length want
      || not (List.for_all2 (fun (r, o) (r', o') -> Rect.equal r r' && o = o') got want)
    then Alcotest.failf "%s: tiles %s, merged %s" (D.to_string d) (show got) (show want)
  done

let suites =
  [
    ( "distribution notation",
      [
        Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "validate" `Quick test_validate;
        Alcotest.test_case "paper running example (P and F)" `Quick test_paper_running_example;
        Alcotest.test_case "fix restricts owners" `Quick test_fix_restricts_owners;
        Alcotest.test_case "fig5 rows" `Quick test_fig5_row_partition;
        Alcotest.test_case "fig5 columns" `Quick test_fig5_col_partition;
        Alcotest.test_case "fig5 tiles" `Quick test_fig5_tile_partition;
        Alcotest.test_case "fig5 fixed face" `Quick test_fig5_fixed_face;
        Alcotest.test_case "fig5 broadcast" `Quick test_fig5_broadcast_replicates;
        Alcotest.test_case "tiles cover/disjoint" `Quick test_tiles_properties;
        Alcotest.test_case "transposed mapping" `Quick test_transposed_mapping;
        Alcotest.test_case "hierarchical" `Quick test_hierarchical_tiles;
        Alcotest.test_case "scalar" `Quick test_scalar_distribution;
        Alcotest.test_case "uneven blocks" `Quick test_uneven_blocks;
        Alcotest.test_case "lower to cin (§5.3)" `Quick test_lower_to_cin_example;
        QCheck_alcotest.to_alcotest qcheck_tiles_cover;
        Alcotest.test_case "tiles match a per-rect merge" `Quick test_tiles_match_merge;
      ] );
  ]
