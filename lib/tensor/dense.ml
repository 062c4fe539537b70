module Ints = Distal_support.Ints
module A1 = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

(* Backed by a flat C-layout [Bigarray.Array1] of float64: elements live
   unboxed in one contiguous malloc'd block outside the OCaml heap, so
   leaf kernels (Kernels, Kernel_registry, Expr_stage) can walk them with
   [unsafe_get]/[unsafe_set] at native speed and the GC never scans or
   moves the payload. *)
type t = { shape : int array; strides : int array; data : buf }

let alloc n = A1.create Bigarray.float64 Bigarray.c_layout n

let create shape =
  let data = alloc (Ints.prod shape) in
  A1.fill data 0.0;
  { shape = Array.copy shape; strides = Ints.row_major_strides shape; data }

let dims t = Array.length t.shape
let shape t = Array.copy t.shape
let size t = A1.dim t.data
let bytes t = 8 * size t

(* The one checked coordinate-to-flat-index path: [get], [set] and
   [add_at] all go through it, and the check survives [-noassert]. *)
let offset t coord =
  let n = Array.length coord in
  if n <> Array.length t.shape then
    invalid_arg
      (Printf.sprintf "Dense.offset: %d coordinates for a rank-%d tensor" n
         (Array.length t.shape));
  let acc = ref 0 in
  for d = 0 to n - 1 do
    let c = coord.(d) in
    if c < 0 || c >= t.shape.(d) then
      invalid_arg
        (Printf.sprintf "Dense.offset: coordinate %d = %d outside extent %d" d c t.shape.(d));
    acc := !acc + (c * t.strides.(d))
  done;
  !acc

let get t coord = t.data.{offset t coord}
let set t coord v = t.data.{offset t coord} <- v
let add_at t coord v = t.data.{offset t coord} <- t.data.{offset t coord} +. v
let fill t v = A1.fill t.data v
let unsafe_data t = t.data
let get_lin t i = t.data.{i}
let set_lin t i v = t.data.{i} <- v
let add_lin t i v = t.data.{i} <- t.data.{i} +. v
let unsafe_get t i = A1.unsafe_get t.data i
let unsafe_set t i v = A1.unsafe_set t.data i v

(* Rect-subset and shape preconditions raise [Invalid_argument] naming
   the operation, the rect and the tensor shape (the [Kernels]
   convention): a bad footprint must be diagnosable from the message
   alone, and the checks must survive [-noassert] builds — they guard
   raw [Array1.blit]/[unsafe_set] offset arithmetic. *)
let shape_str shape =
  "[" ^ String.concat "x" (List.map string_of_int (Array.to_list shape)) ^ "]"

let check_subset fn r shape =
  if not (Rect.subset r (Rect.full shape)) then
    invalid_arg
      (Printf.sprintf "Dense.%s: rect %s outside tensor shape %s" fn
         (Rect.to_string r) (shape_str shape))

let check_extents fn ~what got r =
  if not (Ints.equal got (Rect.extents r)) then
    invalid_arg
      (Printf.sprintf "Dense.%s: %s shape %s does not match extents %s of rect %s"
         fn what (shape_str got)
         (shape_str (Rect.extents r))
         (Rect.to_string r))

let of_buf data shape =
  let n = Ints.prod shape in
  if A1.dim data < n then
    invalid_arg
      (Printf.sprintf "Dense.of_buf: buffer of %d elements cannot back shape %s"
         (A1.dim data) (shape_str shape));
  let data = if A1.dim data = n then data else A1.sub data 0 n in
  { shape = Array.copy shape; strides = Ints.row_major_strides shape; data }

let init shape f =
  let t = create shape in
  Ints.iter_box shape (fun c -> set t c (f c));
  t

let copy t =
  let data = alloc (size t) in
  A1.blit t.data data;
  { shape = Array.copy t.shape; strides = Array.copy t.strides; data }

(* One pass over uninitialized storage: the draws land in row-major
   order, exactly where a coordinate walk of [init] would put them. *)
let random ?(alloc = alloc) ?pool rng shape =
  let t = of_buf (alloc (Ints.prod shape)) shape in
  Distal_support.Rng.fill_float ?pool rng 1.0 t.data;
  t

let to_le_bytes t =
  let n = size t in
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float (A1.unsafe_get t.data i))
  done;
  b

(* Sub-box copies walk whole innermost-dimension rows: the row is
   contiguous in both the big tensor and the box-shaped one, so each is a
   typed flat loop rather than a per-element coordinate walk. Rows are
   visited in row-major order by an in-place odometer over the outer
   dimensions; [f big_off box_off len] runs once per row. This is the
   same strided-copy discipline the registry's kernel packing uses. *)
let rows_iter ~big_shape ~r f =
  let lo = (r : Rect.t).lo and hi = r.hi in
  let nd = Array.length lo in
  if nd = 0 then f 0 0 1
  else if not (Rect.is_empty r) then begin
    let str = Ints.row_major_strides big_shape in
    let row = hi.(nd - 1) - lo.(nd - 1) in
    let idx = Array.copy lo in
    let off = ref 0 in
    for d = 0 to nd - 1 do
      off := !off + (lo.(d) * str.(d))
    done;
    for n = 0 to (Rect.volume r / row) - 1 do
      f !off (n * row) row;
      (* Advance the odometer: bump the innermost outer dimension and
         carry into the ones above it. *)
      let d = ref (nd - 2) in
      while !d >= 0 do
        let k = !d in
        idx.(k) <- idx.(k) + 1;
        off := !off + str.(k);
        if idx.(k) < hi.(k) then d := -1
        else begin
          off := !off - ((hi.(k) - lo.(k)) * str.(k));
          idx.(k) <- lo.(k);
          decr d
        end
      done
    done
  end

let accumulate_into ~src ~dst r =
  check_subset "accumulate_into" r dst.shape;
  check_extents "accumulate_into" ~what:"source" src.shape r;
  let s = src.data and d = dst.data in
  rows_iter ~big_shape:dst.shape ~r (fun doff soff len ->
      for i = 0 to len - 1 do
        A1.unsafe_set d (doff + i)
          (A1.unsafe_get d (doff + i) +. A1.unsafe_get s (soff + i))
      done)

let check_same_shape fn a b =
  if not (Ints.equal a.shape b.shape) then
    invalid_arg
      (Printf.sprintf "Dense.%s: shapes %s and %s differ" fn (shape_str a.shape)
         (shape_str b.shape))

let fold f init t =
  let acc = ref init in
  for i = 0 to size t - 1 do
    acc := f !acc t.data.{i}
  done;
  !acc

let max_abs_diff a b =
  check_same_shape "max_abs_diff" a b;
  let m = ref 0.0 in
  for i = 0 to size a - 1 do
    m := max !m (abs_float (a.data.{i} -. b.data.{i}))
  done;
  !m

let approx_equal ?(tol = 1e-9) a b =
  Ints.equal a.shape b.shape
  &&
  let ok = ref true in
  for i = 0 to size a - 1 do
    let x = a.data.{i} and y = b.data.{i} in
    if not (abs_float (x -. y) <= tol *. (1.0 +. abs_float x +. abs_float y)) then
      ok := false
  done;
  !ok
