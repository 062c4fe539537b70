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

let fill_chunk = 32768

(* Splitmix64 is a counter generator: the k-th draw after state [s0] mixes
   [s0 + k * golden]. So elements [lo, hi) fill from [s0 + lo * golden]
   alone, and chunks filled in any order on any domain hold exactly the
   draws of one serial pass. The state stays in a local for the whole
   loop, so filling n elements costs n mixes and no allocation. *)
let fill_range s0 bound (a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
    lo hi =
  let s = ref (Int64.add s0 (Int64.mul (Int64.of_int lo) golden)) in
  for i = lo to hi - 1 do
    s := Int64.add !s golden;
    Bigarray.Array1.unsafe_set a i (to_unit (mix !s) *. bound)
  done

let fill_float ?pool t bound a =
  let n = Bigarray.Array1.dim a and s0 = t.state in
  (match pool with
  | Some p when n > fill_chunk ->
      Pool.parallel_for p ~n:((n + fill_chunk - 1) / fill_chunk) (fun ~lane:_ c ->
          let lo = c * fill_chunk in
          fill_range s0 bound a lo (min n (lo + fill_chunk)))
  | _ -> fill_range s0 bound a 0 n);
  t.state <- Int64.add s0 (Int64.mul (Int64.of_int n) golden)

let int t bound =
  if bound <= 0 then invalid_arg (Printf.sprintf "Rng.int: bound %d is not positive" bound);
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

let split t = { state = next_int64 t }
