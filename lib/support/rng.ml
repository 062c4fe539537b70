type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let[@inline] to_unit z = Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let float t bound = to_unit (next_int64 t) *. bound

(* The state stays in a local for the whole loop and is stored back once,
   so filling n elements costs n mixes and no allocation. *)
let fill_float t bound (a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let s = ref t.state in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    s := Int64.add !s golden;
    Bigarray.Array1.unsafe_set a i (to_unit (mix !s) *. bound)
  done;
  t.state <- !s

let int t bound =
  if bound <= 0 then invalid_arg (Printf.sprintf "Rng.int: bound %d is not positive" bound);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

let split t = { state = next_int64 t }
