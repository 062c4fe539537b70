module Api = Distal.Api
module Machine = Distal_machine.Machine
module Cost = Distal_machine.Cost_model
module M = Distal_algorithms.Matmul
module Cs = Distal_algorithms.Cosma_scheduler

let ( let* ) = Result.bind

let run_decomposition ~machine ~cost ~n =
  let* alg = M.cosma ~n ~machine in
  let* r = Api.run ~mode:Api.Exec.Model ~cost alg.M.plan ~data:[] in
  Ok r.Api.Exec.stats

let gemm_cpu ?(restricted = false) ~nodes ~n () =
  let mem = 256e9 in
  let d = Cs.find ~procs:nodes ~m:n ~n ~k:n ~mem_per_proc:mem in
  let g1, g2, g3 = d.Cs.grid in
  let machine = Machine.grid ~mem_per_proc:mem [| g1; g2; g3 |] in
  let cost =
    if restricted then { Cost.cpu_distal with task_overhead = 0.0 } else Cost.cpu_full_node
  in
  run_decomposition ~machine ~cost ~n

let gemm_gpu ~nodes ~n =
  let procs = 4 * nodes in
  (* Matrices live in the node's CPU memory (64 GB per GPU share), so the
     3-D decompositions never exhaust the 16 GB framebuffer. *)
  let mem = 64e9 in
  let d = Cs.find ~procs ~m:n ~n ~k:n ~mem_per_proc:mem in
  let g1, g2, g3 = d.Cs.grid in
  let machine = Machine.with_ppn ~kind:Machine.Gpu ~mem_per_proc:mem [| g1; g2; g3 |] ~ppn:4 in
  run_decomposition ~machine ~cost:Cost.gpu_cosma ~n
