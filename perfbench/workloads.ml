(* The benchmark's two request streams.

   Every stream is a pure function of the workload seed: the shapes, the
   order they arrive in and the data seed of every request. The server
   only ever sees the generated submits. Streams are built so that the
   work inside any window of a few hundred requests is nearly the same
   for every seed (a fixed cycle, a stratified order), so two runs with
   different seeds measure the same system. *)

module Api = Distal.Api
module Protocol = Distal_serve.Protocol
module Rng = Distal_support.Rng
module Ints = Distal_support.Ints

type shape = {
  label : string;
  machine : int array;
  vgrid : int array option;
  tensors : Protocol.tensor_decl list;
  stmt : string;
  schedule : string;
  mode : Api.Exec.mode;
}

type request = { shape : shape; seed : int }

let submit ~id r =
  Protocol.submit ?virtual_grid:r.shape.vgrid ~mode:r.shape.mode ~seed:r.seed ~id
    ~machine_dims:r.shape.machine ~tensors:r.shape.tensors ~stmt:r.shape.stmt
    ~schedule:r.shape.schedule ()

let full r = r.shape.mode = Api.Exec.Full

(* {2 Shape families} *)

let decl name shape dist = { Protocol.td_name = name; td_shape = shape; td_dist = dist }
let gemm_stmt = "A(i,j) = B(i,k) * C(k,j)"
let tiled = "[x,y] -> [x,y]"

let gemm_tensors ~n ~operands =
  [ decl "A" [| n; n |] tiled; decl "B" [| n; n |] operands; decl "C" [| n; n |] operands ]

let onto g = Printf.sprintf "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d])" g g

let gemm_shape ~mode ~label ~n ~g ~operands schedule =
  {
    label = Printf.sprintf "%s-%d@%dx%d" label n g g;
    machine = [| g; g |];
    vgrid = None;
    tensors = gemm_tensors ~n ~operands;
    stmt = gemm_stmt;
    schedule = onto g ^ "; " ^ schedule;
    mode;
  }

(* GEMM over cyclically distributed operands: every communicate point
   gathers per-element tiles. [split] is the k chunk. *)
let cyclic_gemm ~mode ~n ~g ~split =
  gemm_shape ~mode ~label:"cyclic-gemm" ~n ~g ~operands:"[x,y] -> [x%1,y%1]"
    (Printf.sprintf
       "split(k, ko, ki, %d); reorder(ko, ii, ji, ki); communicate(A, jo); \
        communicate({B,C}, ko)"
       split)

(* SUMMA as Distal_algorithms.Matmul.summa writes it: four k chunks per
   tile, a substituted gemm leaf. *)
let summa ~mode ~n ~g =
  gemm_shape ~mode ~label:"summa" ~n ~g ~operands:tiled
    (Printf.sprintf
       "split(k, ko, ki, %d); reorder(ko, ii, ji, ki); communicate(A, jo); \
        communicate({B,C}, ko); substitute({ii,ji,ki}, gemm)"
       (max 1 (Ints.ceil_div n (g * 4))))

let cannon ~mode ~n ~g =
  gemm_shape ~mode ~label:"cannon" ~n ~g ~operands:tiled
    (Printf.sprintf
       "divide(k, ko, ki, %d); reorder(ko, ii, ji, ki); rotate(ko, {io,jo}, kos); \
        communicate(A, jo); communicate({B,C}, kos); substitute({ii,ji,ki}, gemm)"
       g)

(* GEMM whose leaf is the generic scalar nest (no substitute). *)
let gemm ~mode ~n ~g =
  gemm_shape ~mode ~label:"gemm" ~n ~g ~operands:tiled
    "communicate(A, jo); communicate({B,C}, jo)"

(* TTV cyclic over i, over-decomposed onto a virtual grid of [vprocs]. *)
let cyclic_ttv ~mode ~i ~jk ~procs ~vprocs =
  {
    label = Printf.sprintf "cyclic-ttv-%dx%d@%d/%d" i jk procs vprocs;
    machine = [| procs |];
    vgrid = Some [| vprocs |];
    tensors =
      [
        decl "A" [| i; jk |] "[x,y] -> [x%1]";
        decl "B" [| i; jk; jk |] "[x,y,z] -> [x%1]";
        decl "c" [| jk |] "[x] -> [*]";
      ];
    stmt = "A(i,j) = B(i,j,k) * c(k)";
    schedule =
      Printf.sprintf "divide(i, io, ii, %d); distribute(io); communicate({A,B,c}, io)" vprocs;
    mode;
  }

(* {2 Workloads} *)

type t = {
  name : string;
  warmup : request list;  (** sent once, in order, before the window *)
  next : unit -> request;  (** the measured stream, one request per call *)
}

(* Data seeds never repeat inside a run (so neither workload hits the
   result cache) and differ between workload seeds. *)
let seed_base seed = 1000 + ((seed land 0xffff) lsl 20)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let counter () =
  let i = ref (-1) in
  fun () ->
    incr i;
    !i

let replay_shapes =
  let mode = Api.Exec.Full in
  [|
    cyclic_gemm ~mode ~n:64 ~g:4 ~split:8;
    summa ~mode ~n:128 ~g:2;
    cyclic_ttv ~mode ~i:512 ~jk:32 ~procs:4 ~vprocs:128;
    gemm ~mode ~n:96 ~g:2;
  |]

let replay seed =
  let base = seed_base seed in
  let tick = counter () in
  let at i = { shape = replay_shapes.(i mod 4); seed = base + i } in
  let next () = at (4 + tick ()) in
  {
    name = "replay";
    warmup = List.init 4 at;
    next;
  }

(* 3 families x 3 grids x 49 sizes = 441 shapes, well past the 128-entry
   plan cache. The order is stratified: each round of 9 requests visits
   every (family, grid) pair once in a seeded order, and each pair walks
   the sizes from a seeded start with a stride of 19 (coprime to 49), so
   every few rounds already span the whole size range. distald builds
   random inputs even in Model mode; n stays at or below 512 (inputs of
   at most 2^19 elements) so that this allocation-bound step, whose speed
   swings most with the host's memory traffic, does not swamp compile
   and simulation. *)
let estimate_sizes = Array.init 49 (fun k -> 128 + (8 * k))

let estimate_shape ~family ~g ~n =
  let mode = Api.Exec.Model in
  match family with
  | 0 -> summa ~mode ~n ~g
  | 1 -> cannon ~mode ~n ~g
  | _ -> cyclic_ttv ~mode ~i:(4 * n) ~jk:16 ~procs:(g * g) ~vprocs:(2 * g * g)

let estimate seed =
  let rng = Rng.create (seed_base seed + 1) in
  let base = seed_base seed in
  let pairs = Array.init 9 (fun p -> (p / 3, [| 4; 8; 16 |].(p mod 3))) in
  let start = Array.map (fun _ -> Rng.int rng 49) pairs in
  let round = Array.init 9 Fun.id in
  let tick = counter () in
  let next () =
    let i = tick () in
    if i mod 9 = 0 then shuffle rng round;
    let p = round.(i mod 9) in
    let family, g = pairs.(p) in
    let n = estimate_sizes.((start.(p) + (19 * (i / 9))) mod 49) in
    { shape = estimate_shape ~family ~g ~n; seed = base + 3 + i }
  in
  (* One request per family at the middle grid and size, so set-up costs
     the same whatever the seed. *)
  let warmup =
    List.init 3 (fun family -> { shape = estimate_shape ~family ~g:8 ~n:320; seed = base + family })
  in
  { name = "estimate"; warmup; next }

let all = [ ("replay", replay); ("estimate", estimate) ]
let names = List.map fst all
let make name seed = (List.assoc name all) seed
