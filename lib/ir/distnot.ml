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

(* Tiles of [seg] (a processor coordinate in this level's machine dims)
   within the sub-box [rect] of the tensor; empty if a fixed dimension
   excludes the processor. Blocked axes keep one segment per dimension;
   cyclic axes produce one segment per strip, so the result is the
   cartesian product of the per-dimension segment lists. *)
let level_tiles lvl ~mdims ~(rect : Rect.t) seg =
  let ok_fix =
    List.for_all
      (fun ok -> ok)
      (List.mapi
         (fun m axis -> match axis with Fix c -> seg.(m) = c | _ -> true)
         lvl.machine_axes)
  in
  if not ok_fix then []
  else begin
    (* Per tensor dimension: the list of [lo, hi) segments this processor
       owns within [rect]. *)
    let rank = Rect.dim rect in
    let segments = Array.init rank (fun d -> [ (rect.lo.(d), rect.hi.(d)) ]) in
    List.iter
      (fun (m, d) ->
        match d with
        | None -> ()
        | Some (d, `Block) ->
            let ext = rect.hi.(d) - rect.lo.(d) in
            let bs = Ints.ceil_div (Int.max ext 1) mdims.(m) in
            let lo = Int.min rect.hi.(d) (rect.lo.(d) + (seg.(m) * bs)) in
            let hi = Int.min rect.hi.(d) (rect.lo.(d) + ((seg.(m) + 1) * bs)) in
            segments.(d) <- (if hi > lo then [ (lo, hi) ] else [])
        | Some (d, `Cyclic b) ->
            let g = mdims.(m) in
            let acc = ref [] in
            let strip = ref (rect.lo.(d) + (seg.(m) * b)) in
            while !strip < rect.hi.(d) do
              let hi = Int.min rect.hi.(d) (!strip + b) in
              if hi > !strip then acc := (!strip, hi) :: !acc;
              strip := !strip + (b * g)
            done;
            segments.(d) <- List.rev !acc)
      (partition_map lvl);
    (* Cartesian product of the segment choices, dimension 0 varying
       fastest. *)
    let lo = Array.make rank 0 and hi = Array.make rank 0 and acc = ref [] in
    let rec product d =
      if d < 0 then acc := Rect.make ~lo:(Array.copy lo) ~hi:(Array.copy hi) :: !acc
      else
        List.iter
          (fun (l, h) ->
            lo.(d) <- l;
            hi.(d) <- h;
            product (d - 1))
          segments.(d)
    in
    product (rank - 1);
    List.rev !acc
  end

let rects_of_proc t ~shape ~machine proc =
  let mdims = (machine : Machine.t).dims in
  let rec go levels off rects =
    match levels with
    | [] -> rects
    | lvl :: rest ->
        let k = List.length lvl.machine_axes in
        let seg = Array.sub proc off k in
        let rects =
          List.concat_map
            (fun rect -> level_tiles lvl ~mdims:(Array.sub mdims off k) ~rect seg)
            rects
        in
        go rest (off + k) rects
  in
  List.filter (fun r -> not (Rect.is_empty r)) (go t 0 [ Rect.full shape ])

let rect_of_proc t ~shape ~machine proc =
  match rects_of_proc t ~shape ~machine proc with [ r ] -> Some r | _ -> None

let tiles t ~shape ~machine =
  let procs = Machine.proc_coords machine in
  if not (List.exists (fun lvl -> List.mem Bcast lvl.machine_axes) t) then
    (* Without a broadcast axis no two processors share a tile: blocks and
       cyclic strips of distinct coordinates are disjoint. *)
    List.concat_map
      (fun proc -> List.map (fun r -> (r, [ proc ])) (rects_of_proc t ~shape ~machine proc))
      procs
  else begin
    (* Replicated tiles are merged by their bounds; cyclic distributions
       produce tens of thousands of tiles, so the table hashes ints. *)
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
          (rects_of_proc t ~shape ~machine proc))
      procs;
    List.rev_map (fun (r, owners) -> (r, List.rev !owners)) !order
  end

let replication_factor t ~machine =
  let mdims = (machine : Machine.t).dims in
  let rec go levels off acc =
    match levels with
    | [] -> acc
    | lvl :: rest ->
        let acc =
          List.fold_left ( * ) acc
            (List.mapi
               (fun m axis -> match axis with Bcast -> mdims.(off + m) | _ -> 1)
               lvl.machine_axes)
        in
        go rest (off + List.length lvl.machine_axes) acc
  in
  go t 0 1

let bytes_per_proc t ~shape ~machine =
  List.fold_left
    (fun acc proc ->
      let owned =
        List.fold_left
          (fun b r -> b +. (8.0 *. float_of_int (Rect.volume r)))
          0.0
          (rects_of_proc t ~shape ~machine proc)
      in
      max acc owned)
    0.0
    (Machine.proc_coords machine)

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
