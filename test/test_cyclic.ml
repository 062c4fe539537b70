(* Cyclic distributions — the alternative partitioning function §3.2
   mentions ("a cyclic distribution that maps adjacent coordinates to
   different colors"), and the layout ScaLAPACK actually uses. *)

module Api = Distal.Api
module Machine = Api.Machine
module D = Api.Distnot
module Rect = Api.Rect
module Ints = Distal_support.Ints
module Stats = Api.Stats

let test_parse_roundtrip () =
  List.iter
    (fun (s, expected) -> Alcotest.(check string) s expected (D.to_string (D.parse_exn s)))
    [
      ("[x,y] -> [x%2,y]", "[x,y] -> [x%2,y]");
      ("[x] -> [x%1]", "[x] -> [x%1]");
      ("[x,y] -> [x%4,y%2]", "[x,y] -> [x%4,y%2]");
    ];
  match D.parse "[x] -> [x%0]" with
  | Ok _ -> Alcotest.fail "zero block size must be rejected"
  | Error _ -> ()

let test_cyclic_strips () =
  (* 12 elements, 3 processors, block 2: processor 1 owns [2,4) and [8,10). *)
  let machine = Machine.grid [| 3 |] in
  let d = D.parse_exn "[x] -> [x%2]" in
  let rects = Tile_ref.rects_of_proc d ~shape:[| 12 |] ~machine [| 1 |] in
  Alcotest.(check (list string)) "strips" [ "[2,4)"; "[8,10)" ]
    (List.map Rect.to_string rects);
  (* The blocked accessor reports None for multi-tile owners. *)
  Alcotest.(check bool) "rect_of_proc is None" true
    (Tile_ref.rect_of_proc d ~shape:[| 12 |] ~machine [| 1 |] = None)

let test_cyclic_color_of_point () =
  let lvl = List.hd (D.parse_exn "[x] -> [x%2]") in
  List.iter
    (fun (pt, c) ->
      Alcotest.(check (array int))
        (Printf.sprintf "color of %d" pt)
        [| c |]
        (D.color_of_point lvl ~shape:[| 12 |] ~mdims:[| 3 |] [| pt |]))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (6, 0); (11, 2) ]

let check_cover d shape machine =
  let tiles = Tile_ref.tiles d ~shape ~machine in
  let total = List.fold_left (fun acc (r, _) -> acc + Rect.volume r) 0 tiles in
  Alcotest.(check int) "covers" (Ints.prod shape) total;
  List.iteri
    (fun i (r1, _) ->
      List.iteri
        (fun j (r2, _) ->
          if i < j then Alcotest.(check bool) "disjoint" false (Rect.overlaps r1 r2))
        tiles)
    tiles

let test_cyclic_tiles_cover () =
  check_cover (D.parse_exn "[x] -> [x%2]") [| 13 |] (Machine.grid [| 3 |]);
  check_cover (D.parse_exn "[x,y] -> [x%2,y]") [| 10; 6 |] (Machine.grid [| 2; 3 |]);
  check_cover (D.parse_exn "[x,y] -> [x%3,y%2]") [| 9; 8 |] (Machine.grid [| 3; 2 |]);
  (* Mixed with broadcast: each replica covers the tensor. *)
  let d = D.parse_exn "[x,y] -> [x%2,*]" in
  let machine = Machine.grid [| 2; 2 |] in
  let tiles = Tile_ref.tiles d ~shape:[| 8; 4 |] ~machine in
  let total = List.fold_left (fun acc (r, _) -> acc + Rect.volume r) 0 tiles in
  Alcotest.(check int) "covers once (tiles are shared by replicas)" 32 total;
  List.iter
    (fun (_, owners) -> Alcotest.(check int) "two replicas" 2 (List.length owners))
    tiles

let gemm_with_cyclic_b db =
  let machine = Machine.grid [| 2; 2 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 8; 8 |] ~dist:db;
          Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 4);\n\
       reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko);\n\
       substitute({ii,ji,ki}, gemm)"

let test_cyclic_gemm_validates () =
  (* SUMMA where B is stored block-cyclically (1-wide and 2-wide blocks):
     the computation is unchanged, the runtime just fetches more, smaller
     pieces. *)
  List.iter
    (fun db ->
      match Api.validate (gemm_with_cyclic_b db) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" db e)
    [ "[x,y] -> [x%1,y]"; "[x,y] -> [x%2,y%2]"; "[x,y] -> [x%3,y]" ]

let test_cyclic_costs_more_messages () =
  let blocked = Api.estimate (gemm_with_cyclic_b "[x,y] -> [x,y]") in
  let cyclic = Api.estimate (gemm_with_cyclic_b "[x,y] -> [x%1,y%1]") in
  Alcotest.(check bool) "more, smaller pieces" true
    (cyclic.Stats.messages > blocked.Stats.messages);
  (* Schedules and volumes stay comparable; layout only changes the
     message structure. *)
  Alcotest.(check bool) "volume within 2x" true
    (cyclic.Stats.bytes_inter +. cyclic.Stats.bytes_intra
    < 2.0 *. (blocked.Stats.bytes_inter +. blocked.Stats.bytes_intra) +. 1.0)

let test_cyclic_redistribute () =
  (* Moving between blocked and cyclic layouts is a real shuffle. *)
  let machine = Machine.grid [| 4 |] in
  let s =
    Api.redistribute ~machine ~shape:[| 16; 4 |]
      ~src:(D.parse_exn "[x,y] -> [x]")
      ~dst:(D.parse_exn "[x,y] -> [x%1]")
      ()
  in
  Alcotest.(check bool) "bytes move" true (s.Stats.bytes_inter > 0.0)

let test_cyclic_fuzzed_semantics () =
  (* A cyclic layout for every tensor of a 3-tensor contraction. *)
  let machine = Machine.grid [| 3 |] in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,l) = B(i,j,k) * C(j,l) * D(k,l)"
      ~tensors:
        [
          Api.tensor "A" [| 7; 4 |] ~dist:"[x,y] -> [x%2]";
          Api.tensor "B" [| 7; 5; 6 |] ~dist:"[x,y,z] -> [y%1]";
          Api.tensor "C" [| 5; 4 |] ~dist:"[x,y] -> [x%2]";
          Api.tensor "D" [| 6; 4 |] ~dist:"[x,y] -> [*]";
        ]
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:"divide(i, io, ii, 3); distribute(io); communicate({A,B,C,D}, io)"
  in
  match Api.validate plan with Ok () -> () | Error e -> Alcotest.fail e

let suites =
  [
    ( "cyclic distributions",
      [
        Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
        Alcotest.test_case "strips" `Quick test_cyclic_strips;
        Alcotest.test_case "color of point" `Quick test_cyclic_color_of_point;
        Alcotest.test_case "tiles cover/disjoint" `Quick test_cyclic_tiles_cover;
        Alcotest.test_case "cyclic gemm validates" `Quick test_cyclic_gemm_validates;
        Alcotest.test_case "message granularity" `Quick test_cyclic_costs_more_messages;
        Alcotest.test_case "redistribute" `Quick test_cyclic_redistribute;
        Alcotest.test_case "3-tensor contraction" `Quick test_cyclic_fuzzed_semantics;
      ] );
  ]
