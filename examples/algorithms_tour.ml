(* The matrix-multiplication case studies of §4 / Fig. 9.

   For each algorithm — Cannon (1969), PUMMA (1994), SUMMA (1995),
   Johnson (1995), Solomonik 2.5D (2011) and COSMA (2019) — this prints
   the target machine, the tensor distribution notation for A, B and C,
   and the schedule; validates the compiled plan against a serial
   reference; and reports the modeled execution profile so the
   communication patterns can be compared (broadcast volume vs. the
   systolic shifts enabled by rotate).

   Run with: dune exec examples/algorithms_tour.exe *)

module Api = Distal.Api
module Machine = Api.Machine
module Stats = Api.Stats
module M = Distal_algorithms.Matmul
module Cs = Distal_algorithms.Cosma_scheduler
module S = Api.Schedule

let n = 48

let show (alg : M.t) =
  Printf.printf "--- %s (%d) ---\n" alg.M.name alg.M.year;
  Printf.printf "machine:  %s\n" (Machine.to_string alg.M.plan.Api.problem.Api.machine);
  List.iter (fun (t, d) -> Printf.printf "data:     %s %s\n" t d) alg.M.dists;
  List.iter (fun c -> Printf.printf "schedule: .%s\n" (S.to_string c)) alg.M.schedule;
  (match Api.validate alg.M.plan with
  | Ok () -> print_endline "validate: OK (matches serial reference)"
  | Error e -> Printf.printf "validate: FAILED %s\n" e);
  let s = Api.estimate alg.M.plan in
  Printf.printf
    "model:    %d tasks, %d steps, %d messages, %.0f KB moved, peak %.0f KB/proc\n\n"
    s.Stats.tasks s.Stats.steps s.Stats.messages
    ((s.Stats.bytes_inter +. s.Stats.bytes_intra) /. 1e3)
    (s.Stats.peak_mem /. 1e3)

let () =
  let m2 = Machine.grid [| 2; 2 |] in
  let m3 = Machine.grid [| 2; 2; 2 |] in
  let cosma_machine =
    let d = Cs.find ~procs:8 ~m:n ~n ~k:n ~mem_per_proc:256e9 in
    let g1, g2, g3 = d.Cs.grid in
    Printf.printf
      "COSMA's scheduler decomposes 8 processors for %dx%d as (%d, %d, %d).\n\n" n n g1
      g2 g3;
    Machine.grid [| g1; g2; g3 |]
  in
  List.iter show
    [
      Result.get_ok (M.cannon ~n ~machine:m2);
      Result.get_ok (M.pumma ~n ~machine:m2);
      Result.get_ok (M.summa ~n ~machine:m2 ());
      Result.get_ok (M.johnson ~n ~machine:m3 ());
      Result.get_ok (M.solomonik ~n ~machine:m3);
      Result.get_ok (M.cosma ~n ~machine:cosma_machine);
    ];
  (* The systolic-vs-broadcast contrast the paper draws (§7.1.2): same
     communication volume, different pattern. *)
  let machine = Machine.grid ~kind:Machine.Gpu ~mem_per_proc:16e9 [| 4; 4 |] in
  let summa = Result.get_ok (M.summa ~n:256 ~machine ()) in
  let cannon = Result.get_ok (M.cannon ~n:256 ~machine) in
  let ts = (Api.estimate summa.M.plan).Stats.time in
  let tc = (Api.estimate cannon.M.plan).Stats.time in
  Printf.printf
    "On a 4x4 grid of GPUs, rotate turns SUMMA's broadcasts into\n\
     nearest-neighbour shifts: modeled time %.2g s -> %.2g s (%.2fx).\n"
    ts tc (ts /. tc)
