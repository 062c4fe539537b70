(* The spatial tile index must be a drop-in replacement for the linear
   scan over a distribution's tiles: same pieces, same payloads, same
   order, for arbitrary tile sets and query rects. *)

module Rect = Distal_tensor.Rect
module Rect_index = Distal_tensor.Rect_index
module Rng = Distal_support.Rng
module Api = Distal.Api
module D = Api.Distnot
module Machine = Api.Machine

(* The scan the index replaced. *)
let linear tiles rect =
  List.filter_map
    (fun (r, v) ->
      let piece = Rect.inter rect r in
      if Rect.is_empty piece then None else Some (piece, v))
    tiles

let show_pieces ps =
  String.concat "; "
    (List.map (fun (r, v) -> Printf.sprintf "%s=%d" (Rect.to_string r) v) ps)

let check_same ~what tiles rect =
  let idx = Rect_index.build tiles in
  let got = Rect_index.query ~cursor:(Rect_index.cursor ()) idx rect in
  let want = linear tiles rect in
  if got <> want then
    QCheck.Test.fail_reportf "%s: query %s over %d tiles:\n  index  %s\n  linear %s"
      what (Rect.to_string rect) (List.length tiles) (show_pieces got)
      (show_pieces want)
  else true

(* Random (possibly overlapping, possibly empty) tiles and query rects. *)
let random_rect rng dims extent =
  let lo = Array.init dims (fun _ -> Rng.int rng (extent + 1)) in
  let hi = Array.map (fun l -> min extent (l + Rng.int rng (extent / 2 + 1))) lo in
  Rect.make ~lo ~hi

let fuzz_random seed =
  let rng = Rng.create seed in
  let dims = 1 + Rng.int rng 3 in
  let extent = 4 + Rng.int rng 12 in
  let ntiles = Rng.int rng 40 in
  let tiles = List.init ntiles (fun i -> (random_rect rng dims extent, i)) in
  let rect = random_rect rng dims extent in
  check_same ~what:"random tiles" tiles rect

(* Tiles of real distributions (blocked, cyclic, replicated), queried with
   random sub-rects — the executor's actual workload. *)
let dists = [ "[x,y] -> [x]"; "[x,y] -> [x%2,y%1]"; "[x,y] -> [x,*]"; "[x,y] -> [y%1]" ]

let fuzz_distribution seed =
  let rng = Rng.create (seed * 131)  in
  let machine = Machine.grid [| 2 + Rng.int rng 2; 2 + Rng.int rng 2 |] in
  let shape = [| 8 + Rng.int rng 9; 8 + Rng.int rng 9 |] in
  let dist = D.parse_exn (List.nth dists (Rng.int rng (List.length dists))) in
  let tiles =
    Distal_ir.Distnot.tiles dist ~shape ~machine
    |> List.mapi (fun i (r, _owners) -> (r, i))
  in
  let rect = random_rect rng 2 (min shape.(0) shape.(1)) in
  check_same ~what:"distribution tiles" tiles rect

let qcheck_random =
  QCheck.Test.make ~name:"index == linear scan (random tiles)" ~count:500
    QCheck.small_nat
    (fun seed -> fuzz_random (succ seed))

let qcheck_distribution =
  QCheck.Test.make ~name:"index == linear scan (distribution tiles)" ~count:300
    QCheck.small_nat
    (fun seed -> fuzz_distribution (succ seed))

let test_edge_cases () =
  (* No tiles; empty query; query outside all tiles; scalar tiles. *)
  let cursor = Rect_index.cursor () in
  Alcotest.(check int) "empty index" 0
    (List.length (Rect_index.query ~cursor (Rect_index.build []) (Rect.make ~lo:[| 0 |] ~hi:[| 4 |])));
  let tiles = [ (Rect.make ~lo:[| 0 |] ~hi:[| 4 |], 0); (Rect.make ~lo:[| 4 |] ~hi:[| 8 |], 1) ] in
  let idx = Rect_index.build tiles in
  Alcotest.(check int) "empty query" 0
    (List.length (Rect_index.query ~cursor idx (Rect.make ~lo:[| 2 |] ~hi:[| 2 |])));
  Alcotest.(check int) "query past the tiles" 0
    (List.length (Rect_index.query ~cursor idx (Rect.make ~lo:[| 9 |] ~hi:[| 12 |])));
  let scalar = Rect.make ~lo:[||] ~hi:[||] in
  Alcotest.(check int) "scalar tiles" 1
    (List.length (Rect_index.query ~cursor (Rect_index.build [ (scalar, 0) ]) scalar))

let suites =
  [
    ( "rect index",
      [
        QCheck_alcotest.to_alcotest qcheck_random;
        QCheck_alcotest.to_alcotest qcheck_distribution;
        Alcotest.test_case "edge cases" `Quick test_edge_cases;
      ] );
  ]
