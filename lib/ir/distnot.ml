module Ints = Distal_support.Ints
module Machine = Distal_machine.Machine
module Rect = Distal_tensor.Rect

type axis = Part of Ident.t | Cyclic of Ident.t * int | Fix of int | Bcast

type level = { tensor_axes : Ident.t list; machine_axes : axis list }

type t = level list

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* {2 Parsing} *)

let parse_level lx =
  let skip_name () =
    match Lexer.peek lx with
    | Lexer.Ident _ -> ignore (Lexer.next lx)
    | _ -> ()
  in
  let parse_bracketed parse_axis =
    let* () = Lexer.expect lx Lexer.Lbracket in
    (* Empty brackets describe a scalar ([a[] -> M[0]]). *)
    match Lexer.peek lx with
    | Lexer.Rbracket ->
        ignore (Lexer.next lx);
        Ok []
    | _ ->
        let rec go acc =
          let* a = parse_axis () in
          match Lexer.next lx with
          | Lexer.Comma -> go (a :: acc)
          | Lexer.Rbracket -> Ok (List.rev (a :: acc))
          | t -> Error ("expected ',' or ']', found " ^ Lexer.describe t)
        in
        go []
  in
  skip_name ();
  let* tensor_axes =
    parse_bracketed (fun () ->
        match Lexer.next lx with
        | Lexer.Ident v -> Ok v
        | t -> Error ("expected a tensor dimension name, found " ^ Lexer.describe t))
  in
  let* () = Lexer.expect lx Lexer.Arrow in
  skip_name ();
  let* machine_axes =
    parse_bracketed (fun () ->
        match Lexer.next lx with
        | Lexer.Ident v -> (
            match Lexer.peek lx with
            | Lexer.Percent -> (
                ignore (Lexer.next lx);
                match Lexer.next lx with
                | Lexer.Int b when b > 0 -> Ok (Cyclic (v, b))
                | t -> Error ("expected a positive block size after '%', found "
                              ^ Lexer.describe t))
            | _ -> Ok (Part v))
        | Lexer.Int c -> Ok (Fix c)
        | Lexer.Star -> Ok Bcast
        | t -> Error ("expected a name, constant or '*', found " ^ Lexer.describe t))
  in
  Ok { tensor_axes; machine_axes }

let parse s =
  let* lx = Lexer.of_string s in
  let rec go acc =
    let* lvl = parse_level lx in
    match Lexer.next lx with
    | Lexer.Semi -> go (lvl :: acc)
    | Lexer.Eof -> Ok (List.rev (lvl :: acc))
    | t -> Error ("expected ';' or end of input, found " ^ Lexer.describe t)
  in
  go []

let parse_exn s =
  match parse s with
  | Ok d -> d
  | Error e -> invalid_arg (Printf.sprintf "distribution parse error in %S: %s" s e)

let axis_to_string = function
  | Part v -> v
  | Cyclic (v, b) -> Printf.sprintf "%s%%%d" v b
  | Fix c -> string_of_int c
  | Bcast -> "*"

let level_to_string lvl =
  Printf.sprintf "[%s] -> [%s]"
    (String.concat "," lvl.tensor_axes)
    (String.concat "," (List.map axis_to_string lvl.machine_axes))

let to_string t = String.concat "; " (List.map level_to_string t)

(* {2 Validation} *)

let dup_free names = List.length (List.sort_uniq compare names) = List.length names

let validate_level lvl ~tensor_rank ~mdims =
  let part_names =
    List.filter_map
      (function Part v | Cyclic (v, _) -> Some v | _ -> None)
      lvl.machine_axes
  in
  if List.length lvl.tensor_axes <> tensor_rank then
    errf "distribution names %d tensor dimensions but the tensor has rank %d"
      (List.length lvl.tensor_axes) tensor_rank
  else if not (dup_free lvl.tensor_axes) then errf "duplicate tensor dimension names"
  else if not (dup_free part_names) then errf "duplicate machine dimension names"
  else if List.exists (fun v -> not (List.mem v lvl.tensor_axes)) part_names then
    errf "machine-side name not present among the tensor dimensions"
  else
    let rec check_fixes m = function
      | [] -> Ok ()
      | Fix c :: rest ->
          if c < 0 || c >= mdims.(m) then
            errf "fixed coordinate %d out of range for machine dimension of extent %d" c
              mdims.(m)
          else check_fixes (m + 1) rest
      | _ :: rest -> check_fixes (m + 1) rest
    in
    check_fixes 0 lvl.machine_axes

let validate t ~tensor_rank ~machine =
  let mdims = (machine : Machine.t).dims in
  let total = List.fold_left (fun acc l -> acc + List.length l.machine_axes) 0 t in
  if t = [] then errf "a distribution needs at least one level"
  else if total <> Array.length mdims then
    errf "distribution levels name %d machine dimensions but the machine has %d" total
      (Array.length mdims)
  else
    let rec go off = function
      | [] -> Ok ()
      | lvl :: rest ->
          let k = List.length lvl.machine_axes in
          let* () = validate_level lvl ~tensor_rank ~mdims:(Array.sub mdims off k) in
          go (off + k) rest
    in
    go 0 t

(* {2 Semantics} *)

(* For machine axis [m] of a level: the tensor dimension it partitions and
   how ([`Block] or [`Cyclic block]). *)
let partition_map lvl =
  let idx v =
    let rec go d = function
      | [] -> invalid_arg "partition_map: unvalidated distribution"
      | x :: _ when Ident.equal x v -> d
      | _ :: rest -> go (d + 1) rest
    in
    go 0 lvl.tensor_axes
  in
  List.mapi
    (fun m axis ->
      match axis with
      | Part v -> (m, Some (idx v, `Block))
      | Cyclic (v, b) -> (m, Some (idx v, `Cyclic b))
      | _ -> (m, None))
    lvl.machine_axes

let color_of_point lvl ~shape ~mdims point =
  if Array.length point <> Array.length shape then
    invalid_arg "Distnot.color_of_point: point rank differs from the shape";
  List.filter_map
    (fun (m, d) ->
      match d with
      | None -> None
      | Some (d, `Block) ->
          let bs = Ints.ceil_div shape.(d) mdims.(m) in
          Some (point.(d) / bs)
      | Some (d, `Cyclic b) -> Some (point.(d) / b mod mdims.(m)))
    (partition_map lvl)
  |> Array.of_list

let procs_of_color lvl ~mdims color =
  let parts = List.filter_map (fun (m, d) -> Option.map (fun _ -> m) d) (partition_map lvl) in
  if List.length parts <> Array.length color then
    invalid_arg "Distnot.procs_of_color: color rank differs from the partitioned axes";
  let matches coord =
    List.for_all2 (fun m c -> coord.(m) = c) parts (Array.to_list color)
    && List.for_all
         (fun ok -> ok)
         (List.mapi
            (fun m axis -> match axis with Fix c -> coord.(m) = c | _ -> true)
            lvl.machine_axes)
  in
  Ints.fold_box mdims ~init:[] ~f:(fun acc coord ->
      if matches coord then coord :: acc else acc)
  |> List.rev

(* A level's per-processor work, fixed once per tile sweep: the machine
   coordinates its [Fix] axes require, and per partitioned axis its
   machine dimension, tensor dimension and kind (both dimensions index the
   whole machine and tensor). *)
type sweep_level = {
  fixes : (int * int) array;
  parts : (int * int * [ `Block | `Cyclic of int ]) array;
}

let sweep_levels t =
  let rec go off = function
    | [] -> []
    | lvl :: rest ->
        let fixes =
          List.mapi (fun m axis -> match axis with Fix c -> Some (off + m, c) | _ -> None)
            lvl.machine_axes
          |> List.filter_map Fun.id |> Array.of_list
        in
        let parts =
          List.filter_map (fun (m, d) -> Option.map (fun (d, kind) -> (off + m, d, kind)) d)
            (partition_map lvl)
          |> Array.of_list
        in
        { fixes; parts } :: go (off + List.length lvl.machine_axes) rest
  in
  go 0 t

(* {2 Tile queries} *)

(* A partitioned machine axis: machine dimension [m] of extent [ext]
   splits tensor dimension [d] at level [lev], blocked ([blk = 0]) or
   cyclic with block [blk]. *)
type part = { m : int; ext : int; d : int; lev : int; blk : int }

(* A color is a processor's coordinates on the partitioned axes, indexed
   row-major over [parts] (machine-dimension order). The processors of
   one color hold the same tiles: a [Fix] axis admits one coordinate, a
   broadcast axis any. Per level and tensor dimension a color's tiles
   are the segments a level's cut leaves of the segment chosen at the
   level before, so its tiles are the product of per-dimension segment
   lists, and different colors' tiles are disjoint. *)
type 'a layout = {
  shape : int array;
  levels : int;
  parts : part array;
  axis : int array;  (* per level and tensor dimension: its part, or -1 *)
  radix : int array;  (* per part: its stride in a color *)
  color_of : int array;  (* per processor: its color, -1 when a [Fix] excludes it *)
  owners : 'a array;  (* per color *)
  volume : int array;  (* per color: the elements of its tiles *)
  seg_lo : int array;  (* per level and tensor dimension: the segment being visited *)
  seg_hi : int array;
}

let coord_of g col p = col / g.radix.(p) mod g.parts.(p).ext

(* The width of a part's segments inside [a, b). A blocked part is the
   cyclic one whose single strip per coordinate is its block: strip [k]
   starts at [a + k * width] and belongs to coordinate [k mod ext]. *)
let width pt a b = if pt.blk = 0 then Ints.ceil_div (Int.max (b - a) 1) pt.ext else pt.blk

(* The elements color [col] holds along dimension [d] inside [a, b),
   from level [l] on. *)
let rec span g col d l a b =
  if l = g.levels then b - a
  else
    let p = g.axis.((l * Array.length g.shape) + d) in
    if p < 0 then span g col d (l + 1) a b
    else begin
      let pt = g.parts.(p) in
      let w = width pt a b in
      let sum = ref 0 and lo = ref (a + (coord_of g col p * w)) in
      while !lo < b do
        sum := !sum + span g col d (l + 1) !lo (Int.min b (!lo + w));
        lo := !lo + (w * pt.ext)
      done;
      !sum
    end

let layout t ~shape ~machine ~owners =
  let mdims = (machine : Machine.t).dims and rank = Array.length shape in
  let sls = sweep_levels t in
  let parts =
    Array.concat
      (List.mapi
         (fun lev sl ->
           Array.map
             (fun (m, d, kind) ->
               { m; ext = mdims.(m); d; lev; blk = (match kind with `Block -> 0 | `Cyclic b -> b) })
             (sl : sweep_level).parts)
         sls)
  in
  let fixes = Array.concat (List.map (fun sl -> sl.fixes) sls) in
  let np = Array.length parts in
  let radix = Array.make np 1 in
  for p = np - 2 downto 0 do
    radix.(p) <- radix.(p + 1) * parts.(p + 1).ext
  done;
  let levels = List.length t in
  let axis = Array.make (levels * rank) (-1) in
  Array.iteri (fun p pt -> axis.((pt.lev * rank) + pt.d) <- p) parts;
  let mstrides = Ints.row_major_strides mdims in
  let coord v m = v / mstrides.(m) mod mdims.(m) in
  let color_of = Array.make (Ints.prod mdims) 0 in
  for v = 0 to Array.length color_of - 1 do
    for p = 0 to np - 1 do
      color_of.(v) <- color_of.(v) + (coord v parts.(p).m * radix.(p))
    done;
    for i = 0 to Array.length fixes - 1 do
      let m, c = fixes.(i) in
      if coord v m <> c then color_of.(v) <- -1
    done
  done;
  let ncolors = if np = 0 then 1 else radix.(0) * parts.(0).ext in
  let held = Array.make ncolors [] in
  for v = Array.length color_of - 1 downto 0 do
    let col = color_of.(v) in
    if col >= 0 then held.(col) <- v :: held.(col)
  done;
  let g =
    { shape = Array.copy shape; levels; parts; axis; radix; color_of;
      owners = Array.map owners held; volume = Array.make ncolors 1;
      seg_lo = Array.make (levels * rank) 0; seg_hi = Array.make (levels * rank) 0 }
  in
  for col = 0 to ncolors - 1 do
    for d = 0 to rank - 1 do
      g.volume.(col) <- g.volume.(col) * span g col d 0 0 shape.(d)
    done
  done;
  g

(* Cons onto [acc], last first, the pieces of color [col]'s tiles that
   meet [f]. Slot [s] visits level [s / rank] and tensor dimension
   [rank - 1 - s mod rank], so within a level dimension 0 varies fastest
   and each level subdivides the segments chosen at the level before:
   [tiles]' order. Every segment visited meets [f]. *)
let rec visit g (f : Rect.t) col s acc =
  let rank = Array.length g.shape in
  if s = g.levels * rank then begin
    let last = s - rank in
    let lo = Array.make rank 0 and hi = Array.make rank 0 in
    for d = 0 to rank - 1 do
      lo.(d) <- Int.max f.lo.(d) g.seg_lo.(last + d);
      hi.(d) <- Int.min f.hi.(d) g.seg_hi.(last + d)
    done;
    (Rect.make ~lo ~hi, g.owners.(col)) :: acc
  end
  else begin
    let l = s / rank and d = rank - 1 - (s mod rank) in
    let i = (l * rank) + d in
    let a = if l = 0 then 0 else g.seg_lo.(i - rank)
    and b = if l = 0 then g.shape.(d) else g.seg_hi.(i - rank) in
    let p = g.axis.(i) in
    if p < 0 then enter g f col s i a b acc
    else begin
      (* Strips [start + j * step, + w) clipped at [b]; those meeting [f]
         are a range of [j]. *)
      let pt = g.parts.(p) in
      let w = width pt a b in
      let step = w * pt.ext and start = a + (coord_of g col p * w) in
      let past = f.lo.(d) - start - w + 1 in
      let j0 = if past <= 0 then 0 else Ints.ceil_div past step in
      let j1 =
        if f.hi.(d) <= start || start >= b then -1
        else Int.min ((b - 1 - start) / step) ((f.hi.(d) - 1 - start) / step)
      in
      let acc = ref acc in
      for j = j1 downto j0 do
        let lo = start + (j * step) in
        acc := enter g f col s i lo (Int.min b (lo + w)) !acc
      done;
      !acc
    end
  end

(* Visit segment [lo, hi) at slot [s] (index [i]), then the slots after. *)
and enter g f col s i lo hi acc =
  g.seg_lo.(i) <- lo;
  g.seg_hi.(i) <- hi;
  visit g f col (s + 1) acc

(* Cons the pieces of every color from part [p] on, coordinates
   descending. A first-level part's strips [k0, k1] meet [f] (clipped to
   the tensor), so its coordinates are all of them or those from
   [k0 mod ext] on, which may wrap past [ext - 1] to 0 (blocked ones
   never do). Deeper parts try every coordinate; [visit] prunes them. *)
let rec colors g (f : Rect.t) p col acc =
  if p = Array.length g.parts then visit g f col 0 acc
  else begin
    let pt = g.parts.(p) in
    let n = g.shape.(pt.d) in
    let w = width pt 0 n in
    let k0 = Int.max 0 f.lo.(pt.d) / w and k1 = (Int.min n f.hi.(pt.d) - 1) / w in
    let all = pt.lev > 0 || k1 - k0 + 1 >= pt.ext in
    let c0 = if all then 0 else k0 mod pt.ext in
    let c1 = if all then pt.ext - 1 else c0 + k1 - k0 in
    let acc = ref acc in
    for c = Int.min c1 (pt.ext - 1) downto c0 do
      acc := colors g f (p + 1) (col + (c * g.radix.(p))) !acc
    done;
    for c = c1 - pt.ext downto 0 do
      acc := colors g f (p + 1) (col + (c * g.radix.(p))) !acc
    done;
    !acc
  end

let rec meets_tensor g (f : Rect.t) d =
  d = Array.length g.shape
  || (Int.max 0 f.lo.(d) < Int.min g.shape.(d) f.hi.(d) && meets_tensor g f (d + 1))

let pieces g f = if meets_tensor g f 0 then colors g f 0 0 [] else []

(* [col] plus the coordinates of the one color whose segment at every
   level from [l] on holds [lo, hi) (non-empty, inside [a, b)) along
   dimension [d]; -1 when the range crosses a segment's end. *)
let rec holder_along g d lo hi l a b col =
  if l = g.levels then col
  else
    let p = g.axis.((l * Array.length g.shape) + d) in
    if p < 0 then holder_along g d lo hi (l + 1) a b col
    else
      let pt = g.parts.(p) in
      let w = width pt a b in
      let k = (lo - a) / w in
      let slo = a + (k * w) in
      let shi = Int.min b (slo + w) in
      if hi > shi then -1
      else holder_along g d lo hi (l + 1) slo shi (col + (k mod pt.ext * g.radix.(p)))

let holders g (r : Rect.t) =
  let rec go d col =
    if d = Array.length g.shape then Some g.owners.(col)
    else
      let lo = r.lo.(d) and hi = r.hi.(d) in
      if lo < 0 || hi > g.shape.(d) || lo >= hi then None
      else
        match holder_along g d lo hi 0 0 g.shape.(d) col with
        | -1 -> None
        | col -> go (d + 1) col
  in
  go 0 0

let owned_volume g proc =
  let col = g.color_of.(proc) in
  if col < 0 then 0 else g.volume.(col)

(* {2 Lowering to concrete index notation (§5.3)} *)

let lower_to_cin lvl ~tensor ~shape ~machine =
  let mdims = (machine : Machine.t).dims in
  let* () = validate_level lvl ~tensor_rank:(Array.length shape) ~mdims in
  (* Step 1-2: an iteration space over the tensor plus broadcast machine
     dimensions, accessing the tensor at the innermost point. *)
  let bcast_vars =
    List.concat
      (List.mapi
         (fun m axis ->
           match axis with Bcast -> [ (Ident.fresh "b", mdims.(m)) ] | _ -> [])
         lvl.machine_axes)
  in
  let roots =
    List.mapi (fun d v -> (v, shape.(d))) lvl.tensor_axes @ bcast_vars
  in
  let stmt =
    {
      Expr.lhs = { Expr.tensor = "_placed"; indices = lvl.tensor_axes };
      rhs = Expr.Access { Expr.tensor; indices = lvl.tensor_axes };
      accum = false;
    }
  in
  let cin =
    {
      Cin.stmt;
      loops = List.map (fun (v, _) -> { Cin.var = v; annots = [] }) roots;
      prov = Provenance.create roots;
      substituted = None;
    }
  in
  (* Step 4: divide every partitioned tensor dimension by its machine
     dimension; collect the distributed (outer / broadcast) variables in
     machine-dimension order. *)
  let pm = partition_map lvl in
  let bq = Queue.create () in
  List.iter (fun (v, _) -> Queue.add v bq) bcast_vars;
  let* cin, dist_vars =
    List.fold_left
      (fun acc (m, d) ->
        let* cin, dist_vars = acc in
        match (d, List.nth lvl.machine_axes m) with
        | Some (_, `Cyclic _), _ ->
            Error
              "cyclic distributions are placed directly by the runtime; §5.3 \
               lowering covers blocked partitions"
        | Some (d, `Block), _ ->
            let x = List.nth lvl.tensor_axes d in
            let xo = Ident.fresh (x ^ "o") and xi = Ident.fresh (x ^ "i") in
            let* cin = Schedule.apply cin (Schedule.Divide (x, xo, xi, mdims.(m))) in
            Ok (cin, dist_vars @ [ xo ])
        | None, Bcast -> Ok (cin, dist_vars @ [ Queue.pop bq ])
        | None, _ -> Ok (cin, dist_vars) (* fixed: no loop *))
      (Ok (cin, []))
      pm
  in
  (* Step 3 + 4: distributed variables shallowest, then distribute them,
     then (step 5) communicate the tensor underneath them. *)
  let inner = List.filter (fun v -> not (List.mem v dist_vars)) (Cin.loop_vars cin) in
  let* cin = Schedule.apply cin (Schedule.Reorder (dist_vars @ inner)) in
  let* cin = Schedule.apply cin (Schedule.Distribute dist_vars) in
  match List.rev dist_vars with
  | [] -> Ok cin
  | last :: _ -> Schedule.apply cin (Schedule.Communicate ([ tensor ], last))
