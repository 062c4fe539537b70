type t = { lo : int array; hi : int array }

let make ~lo ~hi =
  if Array.length lo <> Array.length hi then
    invalid_arg "Rect.make: lo and hi differ in rank";
  Array.iteri
    (fun d l -> if l > hi.(d) then invalid_arg "Rect.make: lo exceeds hi")
    lo;
  { lo; hi }

let full dims = make ~lo:(Array.map (fun _ -> 0) dims) ~hi:(Array.copy dims)
let dim t = Array.length t.lo
let extents t = Array.init (dim t) (fun d -> t.hi.(d) - t.lo.(d))

(* The simulator's hot predicates recurse over the dimensions with no
   intermediate arrays, no closures and no polymorphic comparison, so
   they allocate nothing. *)
let rec volume_from t d acc =
  if d = Array.length t.lo then acc else volume_from t (d + 1) (acc * (t.hi.(d) - t.lo.(d)))

let volume t = volume_from t 0 1
let rec empty_from t d = d < Array.length t.lo && (t.hi.(d) = t.lo.(d) || empty_from t (d + 1))
let is_empty t = empty_from t 0

let same_rank name a b =
  if Array.length a.lo <> Array.length b.lo then
    invalid_arg (name ^ ": rects of different rank")

let contains t coord =
  Array.length coord = dim t
  && Array.for_all (fun ok -> ok)
       (Array.init (dim t) (fun d -> t.lo.(d) <= coord.(d) && coord.(d) < t.hi.(d)))

let rec inside a b d =
  d = Array.length a.lo || (b.lo.(d) <= a.lo.(d) && a.hi.(d) <= b.hi.(d) && inside a b (d + 1))

let subset a b =
  same_rank "Rect.subset" a b;
  is_empty a || inside a b 0

let inter a b =
  same_rank "Rect.inter" a b;
  let lo = Array.init (dim a) (fun d -> Int.max a.lo.(d) b.lo.(d)) in
  let hi = Array.init (dim a) (fun d -> Int.max lo.(d) (Int.min a.hi.(d) b.hi.(d))) in
  { lo; hi }

let hull a b =
  same_rank "Rect.hull" a b;
  if is_empty a then b
  else if is_empty b then a
  else
    {
      lo = Array.init (dim a) (fun d -> Int.min a.lo.(d) b.lo.(d));
      hi = Array.init (dim a) (fun d -> Int.max a.hi.(d) b.hi.(d));
    }

let overlaps a b = not (is_empty (inter a b))

let rec same a b d =
  d = Array.length a.lo || (a.lo.(d) = b.lo.(d) && a.hi.(d) = b.hi.(d) && same a b (d + 1))

let equal a b = a == b || (Array.length a.lo = Array.length b.lo && same a b 0)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash r =
    let h = ref 0 in
    for d = 0 to Array.length r.lo - 1 do
      h := Distal_support.Ints.mix (Distal_support.Ints.mix !h r.lo.(d)) r.hi.(d)
    done;
    !h land max_int
end)

let to_ints (a : int array) o t =
  for d = 0 to Array.length t.lo - 1 do
    a.(o + (2 * d)) <- t.lo.(d);
    a.(o + (2 * d) + 1) <- t.hi.(d)
  done

let of_ints (a : int array) o dims =
  let lo = Array.make dims 0 and hi = Array.make dims 0 in
  for d = 0 to dims - 1 do
    lo.(d) <- a.(o + (2 * d));
    hi.(d) <- a.(o + (2 * d) + 1)
  done;
  make ~lo ~hi

let iter t f =
  if not (is_empty t) then
    Distal_support.Ints.iter_box (extents t) (fun off ->
        f (Array.init (dim t) (fun d -> t.lo.(d) + off.(d))))

let to_string t =
  if dim t = 0 then "[scalar]"
  else
    String.concat "x"
      (List.init (dim t) (fun d -> Printf.sprintf "[%d,%d)" t.lo.(d) t.hi.(d)))
