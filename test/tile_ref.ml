(* The reference tile enumerator: every tile a distribution gives each
   processor, built by sweeping each level's per-dimension segments. The
   library answers tile queries in closed form ([Distnot.layout],
   [pieces], [holders]); this enumerator is what the tests compare those
   answers against, and what the notation tests read tiles from. *)

module Ints = Distal_support.Ints
module Machine = Distal_machine.Machine
module Rect = Distal_tensor.Rect
module D = Distal_ir.Distnot
module Ident = Distal_ir.Ident

(* A level's per-processor work: the machine coordinates its [Fix] axes
   require, and per partitioned axis its machine dimension, tensor
   dimension and kind (both dimensions index the whole machine and
   tensor). *)
type sweep_level = {
  fixes : (int * int) array;
  parts : (int * int * [ `Block | `Cyclic of int ]) array;
}

let sweep_levels (t : D.t) =
  let rec go off = function
    | [] -> []
    | (lvl : D.level) :: rest ->
        let dim v =
          let rec find d = function
            | [] -> invalid_arg "Tile_ref: unvalidated distribution"
            | x :: _ when Ident.equal x v -> d
            | _ :: xs -> find (d + 1) xs
          in
          find 0 lvl.tensor_axes
        in
        let axes = List.mapi (fun m axis -> (off + m, axis)) lvl.machine_axes in
        let fixes =
          List.filter_map (function m, D.Fix c -> Some (m, c) | _ -> None) axes |> Array.of_list
        in
        let parts =
          List.filter_map
            (function
              | m, D.Part v -> Some (m, dim v, `Block)
              | m, D.Cyclic (v, b) -> Some (m, dim v, `Cyclic b)
              | _ -> None)
            axes
          |> Array.of_list
        in
        { fixes; parts } :: go (off + List.length lvl.machine_axes) rest
  in
  go 0 t

(* Per tensor dimension, the segments a processor owns within one rect:
   [count] segments starting at [first], [stride] apart, each [width]
   wide and clipped at [clip]; [tile_lo] and [tile_hi] hold the tile
   being built. Blocked axes keep one segment per dimension; cyclic axes
   produce one segment per strip. *)
type segs = {
  first : int array;
  stride : int array;
  count : int array;
  width : int array;
  clip : int array;
  tile_lo : int array;
  tile_hi : int array;
}

let segs rank =
  let z () = Array.make rank 0 in
  { first = z (); stride = z (); count = z (); width = z (); clip = z (); tile_lo = z ();
    tile_hi = z () }

(* The non-empty tiles processor [proc] owns within [rect] under level
   [sl], consed onto [acc] last first: the cartesian product of the
   per-dimension segments, dimension 0 varying fastest. *)
let level_tiles sg sl ~mdims ~(rect : Rect.t) proc acc =
  let rank = Rect.dim rect in
  for d = 0 to rank - 1 do
    sg.first.(d) <- rect.lo.(d);
    sg.count.(d) <- (if rect.hi.(d) > rect.lo.(d) then 1 else 0);
    sg.width.(d) <- rect.hi.(d) - rect.lo.(d);
    sg.clip.(d) <- rect.hi.(d)
  done;
  Array.iter
    (fun (m, d, kind) ->
      let lo = rect.lo.(d) and hi = rect.hi.(d) and seg = proc.(m) in
      match kind with
      | `Block ->
          let bs = Ints.ceil_div (Int.max (hi - lo) 1) mdims.(m) in
          let l = Int.min hi (lo + (seg * bs)) and h = Int.min hi (lo + ((seg + 1) * bs)) in
          sg.first.(d) <- l;
          sg.count.(d) <- (if h > l then 1 else 0);
          sg.width.(d) <- h - l;
          sg.clip.(d) <- h
      | `Cyclic b ->
          let step = b * mdims.(m) and start = lo + (seg * b) in
          sg.first.(d) <- start;
          sg.stride.(d) <- step;
          sg.count.(d) <- (if start >= hi then 0 else Ints.ceil_div (hi - start) step);
          sg.width.(d) <- b;
          sg.clip.(d) <- hi)
    sl.parts;
  let rec product d acc =
    if d < 0 then Rect.make ~lo:(Array.copy sg.tile_lo) ~hi:(Array.copy sg.tile_hi) :: acc
    else begin
      let acc = ref acc in
      for j = sg.count.(d) - 1 downto 0 do
        let l = sg.first.(d) + (j * sg.stride.(d)) in
        sg.tile_lo.(d) <- l;
        sg.tile_hi.(d) <- Int.min sg.clip.(d) (l + sg.width.(d));
        acc := product (d - 1) !acc
      done;
      !acc
    end
  in
  product (rank - 1) acc

(* A processor's tiles: each level subdivides the tiles of the level
   before; a level whose fixed coordinates exclude the processor leaves
   none. *)
let sweep_rects sg levels ~mdims ~full proc =
  List.fold_left
    (fun rects sl ->
      if not (Array.for_all (fun (m, c) -> proc.(m) = c) sl.fixes) then []
      else
        List.fold_left
          (fun acc rect -> level_tiles sg sl ~mdims ~rect proc acc)
          [] (List.rev rects))
    (if Rect.is_empty full then [] else [ full ])
    levels

(* The (possibly many, for cyclic distributions) non-empty tiles of the
   tensor held by a processor; empty when a fixed dimension excludes the
   processor from owning any data. *)
let rects_of_proc t ~shape ~machine proc =
  sweep_rects (segs (Array.length shape)) (sweep_levels t) ~mdims:(machine : Machine.t).dims
    ~full:(Rect.full shape) proc

(* The single tile of a blocked distribution ([None] for excluded
   processors, and for cyclic owners of several tiles). *)
let rect_of_proc t ~shape ~machine proc =
  match rects_of_proc t ~shape ~machine proc with [ r ] -> Some r | _ -> None

(* All distinct non-empty tiles with their owner processors. Distinct
   tiles are pairwise disjoint and jointly cover the tensor; replicated
   (broadcast) tiles list several owners. *)
let tiles t ~shape ~machine =
  let procs = Machine.proc_coords machine in
  let sg = segs (Array.length shape) and levels = sweep_levels t and full = Rect.full shape in
  let rects = sweep_rects sg levels ~mdims:(machine : Machine.t).dims ~full in
  (* Replicated (broadcast) tiles are merged by their bounds. *)
  let table : int array list ref Rect.Tbl.t = Rect.Tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun proc ->
      List.iter
        (fun (r : Rect.t) ->
          match Rect.Tbl.find table r with
          | owners -> owners := proc :: !owners
          | exception Not_found ->
              let owners = ref [ proc ] in
              Rect.Tbl.add table r owners;
              order := (r, owners) :: !order)
        (rects proc))
    procs;
  List.rev_map (fun (r, owners) -> (r, List.rev !owners)) !order
