module Api = Distal.Api
module Machine = Distal_machine.Machine
module Cost = Distal_machine.Cost_model
module Stats = Distal_runtime.Stats
module M = Distal_algorithms.Matmul
module Cs = Distal_algorithms.Cosma_scheduler
module Ctf = Distal_baselines.Ctf

let series_names = [ "summa"; "cannon"; "johnson"; "solomonik"; "cosma" ]

let time_of (alg : (M.t, string) result) ~cost =
  match alg with
  | Error _ -> None
  | Ok alg -> (
      match Api.run ~mode:Api.Exec.Model ~cost alg.M.plan ~data:[] with
      | Ok r when not r.Api.Exec.stats.Stats.oom -> Some r.Api.Exec.stats.Stats.time
      | Ok _ -> None
      | Error _ -> None)

let default_n = function Machine.Cpu -> 16384 | Machine.Gpu -> 32768

let gemm ?(nodes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]) ?n ~kind () =
  let n = match n with Some n -> n | None -> default_n kind in
  let cost, mem, procs_of, ppn =
    match kind with
    | Machine.Cpu -> (Cost.cpu_distal, 256e9, (fun nd -> nd), 1)
    | Machine.Gpu -> (Cost.gpu_distal, 16e9, (fun nd -> 4 * nd), 4)
  in
  let make dims = Machine.with_ppn ~kind ~mem_per_proc:mem dims ~ppn in
  let times_of_nodes nd =
    let procs = procs_of nd in
    let gx, gy = Cs.best_pair procs in
    let m2 = make [| gx; gy |] in
    let g, _, c = Ctf.grid25 procs in
    let m25 = make [| g; g; c |] in
    let d = Cs.find ~procs ~m:n ~n ~k:n ~mem_per_proc:mem in
    let g1, g2, g3 = d.Cs.grid in
    let mc = make [| g1; g2; g3 |] in
    let q =
      let rec go q = if (q + 1) * (q + 1) * (q + 1) <= procs then go (q + 1) else q in
      go 1
    in
    [
      ("summa", time_of (M.summa ~n ~machine:m2 ()) ~cost);
      ("cannon", time_of (M.cannon ~n ~machine:m2) ~cost);
      ("johnson", time_of (M.johnson ~n ~machine:(make [| q; q; q |]) ()) ~cost);
      ("solomonik", time_of (M.solomonik ~n ~machine:m25) ~cost);
      ("cosma", time_of (M.cosma ~n ~machine:mc) ~cost);
    ]
  in
  let per_node = List.map (fun nd -> (nd, times_of_nodes nd)) nodes in
  (* Normalize against the smallest machine where SUMMA fits. *)
  let base =
    match
      List.find_map
        (fun (nd, times) ->
          Option.map (fun t -> float_of_int nd *. t) (List.assoc "summa" times))
        per_node
    with
    | Some nt -> nt
    | None -> 1.0
  in
  let series =
    List.map
      (fun name ->
        {
          Figure.name;
          cells =
            List.map
              (fun (nd, times) ->
                ( nd,
                  match List.assoc name times with
                  | Some t -> Figure.Value (base /. t)
                  | None -> Figure.Oom ))
              per_node;
        })
      series_names
  in
  {
    Figure.id = "strong";
    title =
      Printf.sprintf "strong-scaling GEMM speedup, fixed n=%d (%s; extension)" n
        (match kind with Machine.Cpu -> "CPU" | Machine.Gpu -> "GPU");
    unit_ = "speedup vs 1 node";
    nodes;
    series;
  }
