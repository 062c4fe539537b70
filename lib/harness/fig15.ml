module Api = Distal.Api
module Machine = Distal_machine.Machine
module Cost = Distal_machine.Cost_model
module Stats = Distal_runtime.Stats
module M = Distal_algorithms.Matmul
module Cs = Distal_algorithms.Cosma_scheduler
module Ctf = Distal_baselines.Ctf
module Scalapack = Distal_baselines.Scalapack
module Cosma_ref = Distal_baselines.Cosma_ref
module Profile = Distal_obs.Profile

let default_nodes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

let weak_n ~base ~nodes =
  let n = float_of_int base *. sqrt (float_of_int nodes) in
  max 1 (int_of_float (Float.round (n /. 16.0))) * 16

let gemm_flops n = 2.0 *. Float.pow (float_of_int n) 3.0

let cell_of_stats ~n ~nodes (stats : Stats.t) =
  if stats.Stats.oom then Figure.Oom
  else Figure.Value (gemm_flops n /. stats.Stats.time /. 1e9 /. float_of_int nodes)

let cell_of_run ?profile ?label ~n ~nodes ~cost (alg : (M.t, string) result) =
  match alg with
  | Error _ -> Figure.Unavailable
  | Ok alg -> (
      (match (profile, label) with
      | Some p, Some l -> Profile.set_next_run_name p l
      | _ -> ());
      match Api.run ~mode:Api.Exec.Model ~cost ?profile alg.M.plan ~data:[] with
      | Error _ -> Figure.Unavailable
      | Ok r -> cell_of_stats ~n ~nodes r.Api.Exec.stats)

let cube_side procs =
  let rec go q = if (q + 1) * (q + 1) * (q + 1) <= procs then go (q + 1) else q in
  go 1

(* Build the machines each algorithm targets for a [procs]-processor
   run. [make] turns a grid into a machine (CPU: one processor per node;
   GPU: node_factors blocks of four). *)
let distal_series ?profile ?fig ~make ~mem ~cost ~procs ~norm_nodes ~n () =
  let m2 =
    let gx, gy = Cs.best_pair procs in
    make [| gx; gy |]
  in
  (* Johnson always targets a cube; off cube counts it over-decomposes a
     virtual ceil-cube onto the machine (§7.1.2's over-decomposition). *)
  let johnson_cube =
    let q = cube_side procs in
    if q * q * q = procs then None
    else Some [| q + 1; q + 1; q + 1 |]
  in
  let johnson_machine =
    match johnson_cube with Some _ -> m2 | None -> let q = cube_side procs in make [| q; q; q |]
  in
  let solomonik_machine =
    let g, _, c = Ctf.grid25 procs in
    make [| g; g; c |]
  in
  let cosma_machine =
    let d = Cs.find ~procs ~m:n ~n ~k:n ~mem_per_proc:mem in
    let g1, g2, g3 = d.Cs.grid in
    make [| g1; g2; g3 |]
  in
  [
    ("our-summa", fun () -> M.summa ~n ~machine:m2 ());
    ("our-cannon", fun () -> M.cannon ~n ~machine:m2);
    ("our-pumma", fun () -> M.pumma ~n ~machine:m2);
    ("our-johnson", fun () -> M.johnson ?virtual_cube:johnson_cube ~n ~machine:johnson_machine ());
    ("our-solomonik", fun () -> M.solomonik ~n ~machine:solomonik_machine);
    ("our-cosma", fun () -> M.cosma ~n ~machine:cosma_machine);
  ]
  |> List.map (fun (name, f) ->
         let label =
           Option.map
             (fun fig -> Printf.sprintf "%s/%s@%d" fig name norm_nodes)
             fig
         in
         (name, cell_of_run ?profile ?label ~n ~nodes:norm_nodes ~cost (f ())))

let collect ~nodes ~series_names ~cells_of_nodes =
  let per_node = List.map (fun nd -> (nd, cells_of_nodes nd)) nodes in
  List.map
    (fun name ->
      {
        Figure.name;
        cells = List.map (fun (nd, cells) -> (nd, List.assoc name cells)) per_node;
      })
    series_names

let cpu ?profile ?(nodes = default_nodes) ?(base_n = 8192) () =
  let series_names =
    [
      "our-summa"; "our-cannon"; "our-pumma"; "our-johnson"; "our-solomonik";
      "our-cosma"; "cosma"; "cosma-restricted"; "ctf"; "scalapack";
    ]
  in
  let cells_of_nodes nd =
    let n = weak_n ~base:base_n ~nodes:nd in
    let mem = 256e9 in
    let make dims = Machine.grid ~kind:Machine.Cpu ~mem_per_proc:mem dims in
    let baseline name f =
      ( name,
        match f () with
        | Ok stats -> cell_of_stats ~n ~nodes:nd stats
        | Error _ -> Figure.Unavailable )
    in
    (* GFLOP/s is normalized per NODE: divide by the node count even for
       algorithms that cannot use every node (Johnson off-cubes). *)
    distal_series ?profile ~fig:"fig15a" ~make ~mem ~cost:Cost.cpu_distal ~procs:nd
      ~norm_nodes:nd ~n ()
    @ [
        baseline "cosma" (fun () -> Cosma_ref.gemm_cpu ~nodes:nd ~n ());
        baseline "cosma-restricted" (fun () ->
            Cosma_ref.gemm_cpu ~restricted:true ~nodes:nd ~n ());
        baseline "ctf" (fun () -> Ctf.gemm ~nodes:nd ~n);
        baseline "scalapack" (fun () -> Scalapack.gemm ~nodes:nd ~n);
      ]
  in
  {
    Figure.id = "fig15a";
    title = "CPU weak-scaling GEMM (initial " ^ string_of_int base_n ^ "^2 per node)";
    unit_ = "GFLOP/s/node";
    nodes;
    series = collect ~nodes ~series_names ~cells_of_nodes;
  }

let gpu ?profile ?(nodes = default_nodes) ?(base_n = 20000) () =
  let series_names =
    [
      "our-summa"; "our-cannon"; "our-pumma"; "our-johnson"; "our-solomonik";
      "our-cosma"; "cosma";
    ]
  in
  let cells_of_nodes nd =
    let n = weak_n ~base:base_n ~nodes:nd in
    let procs = 4 * nd in
    let mem = 16e9 in
    let make dims = Machine.with_ppn ~kind:Machine.Gpu ~mem_per_proc:mem dims ~ppn:4 in
    distal_series ?profile ~fig:"fig15b" ~make ~mem ~cost:Cost.gpu_distal ~procs
      ~norm_nodes:nd ~n ()
    @ [
        ( "cosma",
          match Cosma_ref.gemm_gpu ~nodes:nd ~n with
          | Ok stats -> cell_of_stats ~n ~nodes:nd stats
          | Error _ -> Figure.Unavailable );
      ]
  in
  {
    Figure.id = "fig15b";
    title = "GPU weak-scaling GEMM (initial " ^ string_of_int base_n ^ "^2 per node, 4 V100s/node)";
    unit_ = "GFLOP/s/node";
    nodes;
    series = collect ~nodes ~series_names ~cells_of_nodes;
  }
