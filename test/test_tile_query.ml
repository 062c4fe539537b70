(* The closed-form tile queries of [Distnot.layout] must answer exactly
   what the tile list answers: [pieces] is [Tile_ref.tiles] filtered by
   [Rect.inter] (same pieces, same owners, same order), [holders] are
   the owners of the one tile containing a rect, and [owned_volume] is
   the sum of a processor's tiles' volumes. Distributions are drawn over every form the
   notation has (blocked, cyclic, [Fix], [*], two levels) on 1-3
   dimensional machines, and the virtual grids the simulator folds onto a
   smaller machine fold owners the same way here. *)

module Rect = Distal_tensor.Rect
module Rng = Distal_support.Rng
module D = Distal_ir.Distnot
module Machine = Distal_machine.Machine

(* A random level over [mdims]: each machine axis partitions an unused
   tensor dimension (blocked or cyclic with block 1-3), fixes a
   coordinate, or broadcasts. *)
let gen_level rng ~prefix ~rank ~mdims =
  let tensor_axes = List.init rank (fun d -> Printf.sprintf "%s%d" prefix d) in
  let free = ref tensor_axes in
  let take () =
    let v = List.nth !free (Rng.int rng (List.length !free)) in
    free := List.filter (( <> ) v) !free;
    v
  in
  let machine_axes =
    Array.to_list
      (Array.map
         (fun ext ->
           match Rng.int rng 6 with
           | (0 | 1) when !free <> [] -> D.Part (take ())
           | (2 | 3) when !free <> [] -> D.Cyclic (take (), 1 + Rng.int rng 3)
           | 4 -> D.Fix (Rng.int rng ext)
           | _ -> D.Bcast)
         mdims)
  in
  { D.tensor_axes; machine_axes }

type case = {
  dist : D.t;
  shape : int array;
  vmachine : Machine.t;  (* the grid the distribution names *)
  nprocs : int;  (* the machine it folds onto *)
}

let gen_case rng =
  let mrank = 1 + Rng.int rng 3 in
  let mdims = Array.init mrank (fun _ -> 1 + Rng.int rng 4) in
  let rank = if Rng.int rng 8 = 0 then 0 else 1 + Rng.int rng 3 in
  let shape = Array.init rank (fun _ -> if Rng.int rng 12 = 0 then 0 else 1 + Rng.int rng 13) in
  let dist =
    if mrank >= 2 && Rng.int rng 3 = 0 then
      let k = 1 + Rng.int rng (mrank - 1) in
      [
        gen_level rng ~prefix:"x" ~rank ~mdims:(Array.sub mdims 0 k);
        gen_level rng ~prefix:"y" ~rank ~mdims:(Array.sub mdims k (mrank - k));
      ]
    else [ gen_level rng ~prefix:"x" ~rank ~mdims ]
  in
  let vmachine = Machine.grid mdims in
  let nv = Machine.num_procs vmachine in
  let nprocs = if Rng.int rng 3 = 0 then 1 + Rng.int rng nv else nv in
  (match D.validate dist ~tensor_rank:rank ~machine:vmachine with
  | Ok () -> ()
  | Error e -> failwith ("generated an invalid distribution: " ^ e));
  { dist; shape; vmachine; nprocs }

let describe c =
  Printf.sprintf "%s shape %s on %s folded onto %d" (D.to_string c.dist)
    (Distal_support.Ints.to_string c.shape)
    (Distal_support.Ints.to_string (Machine.dims c.vmachine))
    c.nprocs

(* Owners folded onto the machine, first occurrences kept, as the
   simulator folds a virtual grid. *)
let fold c vs =
  List.fold_left
    (fun acc v ->
      let p = v mod c.nprocs in
      if List.mem p acc then acc else acc @ [ p ])
    [] vs

(* The reference: the tile list, owners as linear indices. *)
let tiles c =
  List.map
    (fun (r, os) -> (r, List.map (Machine.linearize c.vmachine) os))
    (Tile_ref.tiles c.dist ~shape:c.shape ~machine:c.vmachine)

let layout c = D.layout c.dist ~shape:c.shape ~machine:c.vmachine ~owners:(fold c)

(* Footprints: random rects around the tensor (empty ones, ones past its
   bounds), the tiles themselves, sub-rects and shifts of them, and the
   whole tensor. *)
let footprints rng c tiles =
  let rank = Array.length c.shape in
  let random () =
    let lo = Array.map (fun n -> Rng.int rng (n + 5) - 2) c.shape in
    let hi = Array.mapi (fun d l -> l + Rng.int rng ((c.shape.(d) / 2) + 3)) lo in
    Rect.make ~lo ~hi
  in
  let of_tile (r : Rect.t) =
    let lo = Array.mapi (fun d l -> l + Rng.int rng (r.hi.(d) - l + 1)) r.lo in
    let hi = Array.mapi (fun d h -> h - Rng.int rng (h - lo.(d) + 1)) r.hi in
    let shift = Array.init rank (fun _ -> Rng.int rng 3 - 1) in
    [
      r;
      Rect.make ~lo ~hi;
      Rect.make ~lo:(Array.mapi (fun d l -> l + shift.(d)) r.lo)
        ~hi:(Array.mapi (fun d h -> h + shift.(d)) r.hi);
    ]
  in
  let pick () = fst (List.nth tiles (Rng.int rng (List.length tiles))) in
  let picked =
    if tiles = [] then [] else List.concat_map (fun _ -> of_tile (pick ())) [ 1; 2; 3 ]
  in
  (Rect.full c.shape :: List.init 6 (fun _ -> random ())) @ picked

let show ps =
  String.concat "; "
    (List.map
       (fun (r, os) ->
         Printf.sprintf "%s<-%s" (Rect.to_string r) (String.concat "," (List.map string_of_int os)))
       ps)

let check_pieces seed =
  let rng = Rng.create (seed * 7919) in
  let c = gen_case rng in
  let tiles = tiles c and g = layout c in
  List.for_all
    (fun f ->
      let want =
        List.filter_map
          (fun (r, os) ->
            let piece = Rect.inter f r in
            if Rect.is_empty piece then None else Some (piece, fold c os))
          tiles
      in
      let got = D.pieces g f in
      got = want
      || QCheck.Test.fail_reportf "%s, footprint %s:\n  query %s\n  tiles %s" (describe c)
           (Rect.to_string f) (show got) (show want))
    (footprints rng c tiles)

(* The virtual processors that fold onto processor [p] of the machine:
   [p] holds every tile they hold. *)
let virtuals c p =
  List.filter (fun v -> v mod c.nprocs = p) (List.init (Machine.num_procs c.vmachine) Fun.id)

(* A rect's holders are the owners of the tile it lies within, none for
   an empty rect; a processor's volume is non-zero when it owns a tile,
   which holds every empty rect. *)
let check_holders seed =
  let rng = Rng.create (seed * 104729) in
  let c = gen_case rng in
  let tiles = tiles c and g = layout c in
  let rank = Array.length c.shape in
  let empty = Rect.make ~lo:(Array.make rank 1) ~hi:(Array.make rank 1) in
  let rects = if rank = 0 then footprints rng c tiles else empty :: footprints rng c tiles in
  List.for_all
    (fun f ->
      let want =
        List.find_map
          (fun (r, os) -> if Rect.is_empty f || not (Rect.subset f r) then None else Some (fold c os))
          tiles
      in
      let got = D.holders g f in
      got = want
      || QCheck.Test.fail_reportf "%s, rect %s: holders %s, tiles %s" (describe c)
           (Rect.to_string f) (show (Option.to_list (Option.map (fun os -> (f, os)) got)))
           (show (Option.to_list (Option.map (fun os -> (f, os)) want))))
    rects
  && List.for_all
       (fun v ->
         let want = List.exists (fun (_, os) -> List.mem v os) tiles in
         D.owned_volume g v > 0 = want
         || QCheck.Test.fail_reportf "%s: virtual processor %d: volume %d, owns a tile %b"
              (describe c) v (D.owned_volume g v) want)
       (List.init (Machine.num_procs c.vmachine) Fun.id)

(* A rect that lies within one tile is that tile's only piece: whenever
   [holders] answers, [pieces] returns the rect itself with the same
   owners. The simulator builds such a footprint's fetch plan from its
   holders alone, without asking for its pieces. *)
let check_sole_piece seed =
  let rng = Rng.create (seed * 6700417) in
  let c = gen_case rng in
  let tiles = tiles c and g = layout c in
  List.for_all
    (fun f ->
      match D.holders g f with
      | None -> true
      | Some os ->
          D.pieces g f = [ (f, os) ]
          || QCheck.Test.fail_reportf "%s, rect %s: holders %s, pieces %s" (describe c)
               (Rect.to_string f) (show [ (f, os) ]) (show (D.pieces g f)))
    (footprints rng c tiles @ List.map fst tiles)

(* Static bytes per processor, as the simulator sums them: every tile
   once per virtual owner that folds onto the processor. *)
let check_bytes seed =
  let rng = Rng.create (seed * 15485863) in
  let c = gen_case rng in
  let tiles = tiles c and g = layout c in
  List.for_all
    (fun p ->
      let want =
        List.fold_left
          (fun acc (r, os) ->
            List.fold_left
              (fun acc v ->
                if v mod c.nprocs = p then acc +. (8.0 *. float_of_int (Rect.volume r)) else acc)
              acc os)
          0.0 tiles
      in
      let got =
        List.fold_left
          (fun acc v -> acc +. (8.0 *. float_of_int (D.owned_volume g v)))
          0.0 (virtuals c p)
      in
      Int64.bits_of_float got = Int64.bits_of_float want
      || QCheck.Test.fail_reportf "%s: processor %d holds %.0f bytes, tiles %.0f" (describe c) p
           got want)
    (List.init c.nprocs Fun.id)

let qcheck name f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:1000 (QCheck.int_range 1 1_000_000) f)

let test_edge_cases () =
  let machine = Machine.grid [| 3 |] in
  let query dist shape f =
    D.pieces (D.layout (D.parse_exn dist) ~shape ~machine ~owners:Fun.id) f
  in
  let r lo hi = Rect.make ~lo ~hi in
  Alcotest.(check int) "empty footprint" 0
    (List.length (query "[x] -> [x]" [| 9 |] (r [| 2 |] [| 2 |])));
  Alcotest.(check int) "footprint past the tensor" 0
    (List.length (query "[x] -> [x%2]" [| 9 |] (r [| 9 |] [| 12 |])));
  Alcotest.(check int) "empty tensor" 0
    (List.length (query "[x,y] -> [y]" [| 0; 4 |] (r [| 0; 0 |] [| 4; 4 |])));
  Alcotest.(check bool) "replicated scalar" true
    (query "[] -> [*]" [||] (r [||] [||]) = [ (r [||] [||], [ 0; 1; 2 ]) ]);
  Alcotest.(check bool) "cyclic strips clipped to the footprint" true
    (query "[x] -> [x%2]" [| 9 |] (r [| 1 |] [| 8 |])
    = [ (r [| 1 |] [| 2 |], [ 0 ]); (r [| 6 |] [| 8 |], [ 0 ]); (r [| 2 |] [| 4 |], [ 1 ]);
        (r [| 4 |] [| 6 |], [ 2 ]) ]);
  let g = D.layout (D.parse_exn "[x] -> [x]") ~shape:[| 2 |] ~machine ~owners:Fun.id in
  Alcotest.(check bool) "an empty rect has no holders" true (D.holders g (r [| 5 |] [| 5 |]) = None);
  Alcotest.(check bool) "a rect across two tiles has no holders" true
    (D.holders g (r [| 0 |] [| 2 |]) = None);
  Alcotest.(check (list bool)) "processors with tiles" [ true; true; false ]
    (List.map (fun p -> D.owned_volume g p > 0) [ 0; 1; 2 ])

let suites =
  [
    ( "tile query",
      [
        qcheck "pieces == filtered tiles" check_pieces;
        qcheck "holders == containing tile" check_holders;
        qcheck "holders == sole piece" check_sole_piece;
        qcheck "static bytes == tile sum" check_bytes;
        Alcotest.test_case "edge cases" `Quick test_edge_cases;
      ] );
  ]
