(* Clock and order statistics shared by the benchmark's modules. *)

(* Seconds on CLOCK_MONOTONIC with nanosecond resolution: the layers
   timed here run for microseconds, below gettimeofday's resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.0
let sorted l = Array.of_list (List.sort compare l)

(* Linear interpolation between closest ranks; nan on no samples. *)
let quantile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* First and third quartiles as Python's statistics.quantiles(values,
   n=4) computes them (the default "exclusive" method), so spreads read
   the same here as in any Python post-processing. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let q i =
      let j = max 1 (min (ld - 1) (i * (ld + 1) / 4)) in
      let delta = (i * (ld + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
