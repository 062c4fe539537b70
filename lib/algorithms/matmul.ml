module Api = Distal.Api
module Machine = Distal_machine.Machine
module S = Distal_ir.Schedule
module Ints = Distal_support.Ints

type t = {
  name : string;
  year : int;
  dists : (string * string) list;
  schedule : S.t list;
  plan : Distal.Api.plan;
}

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let gemm_problem ?virtual_grid ~machine ~n dists =
  Api.problem ?virtual_grid ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
    ~tensors:(List.map (fun (name, d) -> Api.tensor name [| n; n |] ~dist:d) dists)
    ()

let require_dims machine k name =
  if Machine.dim machine <> k then
    errf "%s needs a %d-dimensional machine, got %s" name k (Machine.to_string machine)
  else Ok ()

let make ?virtual_grid ~name ~year ~machine ~n ~dists ~schedule () =
  let* problem = gemm_problem ?virtual_grid ~machine ~n dists in
  let* plan = Api.compile problem ~schedule in
  Ok { name; year; dists; schedule; plan }

let tiled2 = [ ("A", "[x,y] -> [x,y]"); ("B", "[x,y] -> [x,y]"); ("C", "[x,y] -> [x,y]") ]

let dist2 gx gy =
  S.Distribute_onto
    { targets = [ "i"; "j" ]; dist = [ "io"; "jo" ]; local = [ "ii"; "ji" ];
      grid = [| gx; gy |] }

let summa ?(chunks_per_tile = 4) ~n ~machine () =
  let* () = require_dims machine 2 "SUMMA" in
  let gx = machine.Machine.dims.(0) and gy = machine.Machine.dims.(1) in
  let chunk = max 1 (Ints.ceil_div n (gx * chunks_per_tile)) in
  make ~name:"summa" ~year:1995 ~machine ~n ~dists:tiled2
    ~schedule:
      [
        dist2 gx gy;
        S.Split ("k", "ko", "ki", chunk);
        S.Reorder [ "ko"; "ii"; "ji"; "ki" ];
        S.Communicate ([ "A" ], "jo");
        S.Communicate ([ "B"; "C" ], "ko");
        S.Substitute ([ "ii"; "ji"; "ki" ], "gemm");
      ]
    ()


let systolic2 ~name ~year ~rotate_by ~n ~machine =
  let* () = require_dims machine 2 name in
  let gx = machine.Machine.dims.(0) and gy = machine.Machine.dims.(1) in
  make ~name ~year ~machine ~n ~dists:tiled2
    ~schedule:
      [
        dist2 gx gy;
        S.Divide ("k", "ko", "ki", gx);
        S.Reorder [ "ko"; "ii"; "ji"; "ki" ];
        S.Rotate { target = "ko"; by = rotate_by; result = "kos" };
        S.Communicate ([ "A" ], "jo");
        S.Communicate ([ "B"; "C" ], "kos");
        S.Substitute ([ "ii"; "ji"; "ki" ], "gemm");
      ]
    ()

let cannon ~n ~machine =
  systolic2 ~name:"cannon" ~year:1969 ~rotate_by:[ "io"; "jo" ] ~n ~machine

let pumma ~n ~machine =
  systolic2 ~name:"pumma" ~year:1994 ~rotate_by:[ "io" ] ~n ~machine

let faces3 =
  [ ("A", "[x,y] -> [x,y,0]"); ("B", "[x,z] -> [x,0,z]"); ("C", "[z,y] -> [0,y,z]") ]

let dist3 g =
  S.Distribute_onto
    { targets = [ "i"; "j"; "k" ]; dist = [ "io"; "jo"; "ko" ];
      local = [ "ii"; "ji"; "ki" ]; grid = g }

let johnson ?virtual_cube ~n ~machine () =
  let* grid, virtual_grid =
    match virtual_cube with
    | Some g ->
        if Array.length g <> 3 then Error "johnson: virtual cube must be 3-D"
        else Ok (g, Some g)
    | None ->
        let* () = require_dims machine 3 "Johnson's algorithm" in
        Ok (machine.Machine.dims, None)
  in
  make ?virtual_grid ~name:"johnson" ~year:1995 ~machine ~n ~dists:faces3
    ~schedule:
      [
        dist3 grid;
        S.Communicate ([ "A"; "B"; "C" ], "ko");
        S.Substitute ([ "ii"; "ji"; "ki" ], "gemm");
      ]
    ()

let solomonik ~n ~machine =
  let* () = require_dims machine 3 "Solomonik's 2.5D algorithm" in
  let g = machine.Machine.dims.(0) in
  let tiled_face = List.map (fun (t, _) -> (t, "[x,y] -> [x,y,0]")) faces3 in
  make ~name:"solomonik" ~year:2011 ~machine ~n ~dists:tiled_face
    ~schedule:
      [
        dist3 machine.Machine.dims;
        S.Divide ("ki", "kio", "kii", g);
        S.Reorder [ "kio"; "ii"; "ji"; "kii" ];
        S.Rotate { target = "kio"; by = [ "io"; "jo" ]; result = "kios" };
        S.Communicate ([ "A" ], "ko");
        S.Communicate ([ "B"; "C" ], "kios");
        S.Substitute ([ "ii"; "ji"; "kii" ], "gemm");
      ]
    ()

let cosma ~n ~machine =
  let* () = require_dims machine 3 "COSMA" in
  let g3 = machine.Machine.dims.(2) in
  (* Each processor's k range runs in four steps. *)
  let chunk = max 1 (Ints.ceil_div (Ints.ceil_div n g3) 4) in
  make ~name:"cosma" ~year:2019 ~machine ~n ~dists:faces3
    ~schedule:
      [
        dist3 machine.Machine.dims;
        S.Split ("ki", "kio", "kii", chunk);
        S.Reorder [ "kio"; "ii"; "ji"; "kii" ];
        S.Communicate ([ "A" ], "ko");
        S.Communicate ([ "B"; "C" ], "kio");
        S.Substitute ([ "ii"; "ji"; "kii" ], "gemm");
      ]
    ()

let all_2d =
  [
    ("summa", fun ~n ~machine -> summa ~n ~machine ());
    ("cannon", cannon);
    ("pumma", pumma);
  ]
