module Api = Distal.Api
module Machine = Distal_machine.Machine
module Cost = Distal_machine.Cost_model
module M = Distal_algorithms.Matmul
module Cs = Distal_algorithms.Cosma_scheduler

let ( let* ) = Result.bind

let gemm ~nodes ~n =
  (* Four MPI ranks per node (§7.1), arranged in the most balanced 2-D
     process grid: the source of the paper's "performance variability due
     to non-square machine grids". *)
  let gx, gy = Cs.best_pair (4 * nodes) in
  let machine = Machine.with_ppn ~kind:Machine.Cpu ~mem_per_proc:64e9 [| gx; gy |] ~ppn:4 in
  let* alg = M.summa ~n ~machine () in
  let* r = Api.run ~mode:Api.Exec.Model ~cost:Cost.cpu_rank_no_overlap alg.M.plan ~data:[] in
  Ok r.Api.Exec.stats
