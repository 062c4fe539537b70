module Machine = Distal_machine.Machine
module Cost_model = Distal_machine.Cost_model
module Dense = Distal_tensor.Dense
module Kernel_registry = Distal_tensor.Kernel_registry
module Rect = Distal_tensor.Rect
module Expr = Distal_ir.Expr
module Distnot = Distal_ir.Distnot
module Schedule = Distal_ir.Schedule
module Cin = Distal_ir.Cin
module Lower = Distal_ir.Lower
module Taskir = Distal_ir.Taskir
module Einsum_parser = Distal_ir.Einsum_parser
module Stats = Distal_runtime.Stats
module Exec = Distal_runtime.Exec
module Rng = Distal_support.Rng
module Obs = Distal_obs
module Fault = Distal_fault.Fault

(* Wall-clock span around one compiler phase, when a profile is given. *)
let phase profile name f =
  Obs.Span.wall (Option.map Obs.Profile.sink profile) ~name ~cat:"compile" f

type tensor = { name : string; shape : int array; dist : Distnot.t }

let tensor name shape ~dist = { name; shape; dist = Distnot.parse_exn dist }
let tensor_d name shape dist = { name; shape; dist }

type problem = {
  machine : Machine.t;
  stmt : Expr.stmt;
  tensors : tensor list;
  virtual_grid : int array option;
}

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let shapes_of tensors = List.map (fun t -> (t.name, t.shape)) tensors

let problem ?profile ?virtual_grid ~machine ~stmt ~tensors () =
  let dist_machine =
    match virtual_grid with
    | None -> machine
    | Some dims ->
        Machine.grid ~kind:(Machine.kind machine)
          ~mem_per_proc:(Machine.mem_per_proc_bytes machine) dims
  in
  (* Extents may come from a client: each must be positive and the element
     count must fit an int. *)
  let* _ =
    List.fold_left
      (fun acc t ->
        let* _ = acc in
        Array.fold_left
          (fun n e ->
            let* n = n in
            if e <= 0 then errf "tensor %s: extent %d is not positive" t.name e
            else if n > max_int / e then errf "tensor %s: element count overflows" t.name
            else Ok (n * e))
          (Ok 1) t.shape)
      (Ok 1) tensors
  in
  let* stmt = phase profile "parse" (fun () -> Einsum_parser.parse stmt) in
  let* _ =
    phase profile "typecheck" (fun () ->
        Distal_ir.Typecheck.check stmt ~shapes:(shapes_of tensors))
  in
  let* () =
    List.fold_left
      (fun acc tn ->
        let* () = acc in
        if List.exists (fun t -> String.equal t.name tn) tensors then Ok ()
        else errf "statement uses tensor %s but it was not declared" tn)
      (Ok ()) (Expr.tensors stmt)
  in
  let* () =
    List.fold_left
      (fun acc t ->
        let* () = acc in
        match
          Distnot.validate t.dist ~tensor_rank:(Array.length t.shape)
            ~machine:dist_machine
        with
        | Ok () -> Ok ()
        | Error e -> errf "tensor %s: %s" t.name e)
      (Ok ()) tensors
  in
  Ok { machine; stmt; tensors; virtual_grid }

let or_invalid = function Ok x -> x | Error e -> invalid_arg e

let problem_exn ?profile ?virtual_grid ~machine ~stmt ~tensors () =
  or_invalid (problem ?profile ?virtual_grid ~machine ~stmt ~tensors ())

(* The lazily compiled executable plan of the default options
   (the machine's cost model, no faults). Lives on the plan
   itself so every consumer of the same [plan] value — repeated [run]
   calls, the serving layer's plan cache — shares it. One entry per
   plan: other options would let a client grow the cache without bound,
   one replay buffer pool per fault plan. Compilation is single-flight
   under the mutex. *)
type exec_cache = { ec_m : Mutex.t; mutable ec_plan : Exec.eplan option }

let new_exec_cache () = { ec_m = Mutex.create (); ec_plan = None }

type plan = {
  problem : problem;
  cin : Cin.t;
  program : Taskir.program;
  exec_cache : exec_cache;
}

let compile ?profile problem ~schedule =
  let shapes = shapes_of problem.tensors in
  let* cin = phase profile "cin" (fun () -> Cin.of_stmt problem.stmt ~shapes) in
  let* cin =
    phase profile "schedule rewrites" (fun () -> Schedule.apply_all cin schedule)
  in
  let* program = phase profile "lower" (fun () -> Lower.lower cin ~shapes) in
  Ok { problem; cin; program; exec_cache = new_exec_cache () }

let compile_exn ?profile problem ~schedule = or_invalid (compile ?profile problem ~schedule)

let compile_script ?profile problem ~schedule =
  let* cmds = phase profile "parse schedule" (fun () -> Schedule.parse schedule) in
  compile ?profile problem ~schedule:cmds

let compile_script_exn ?profile problem ~schedule =
  or_invalid (compile_script ?profile problem ~schedule)

let default_cost machine =
  match Machine.kind machine with
  | Machine.Cpu -> Cost_model.cpu_distal
  | Machine.Gpu -> Cost_model.gpu_distal

let spec ?cost plan =
  let machine = plan.problem.machine in
  {
    Exec.machine;
    cost = (match cost with Some c -> c | None -> default_cost machine);
    program = plan.program;
    dists = List.map (fun t -> (t.name, t.dist)) plan.problem.tensors;
    virtual_grid = plan.problem.virtual_grid;
  }

let eplan plan =
  let c = plan.exec_cache in
  Mutex.protect c.ec_m @@ fun () ->
  match c.ec_plan with
  | Some ep -> Ok ep
  | None ->
      let* ep = Exec.plan (spec plan) in
      c.ec_plan <- Some ep;
      Ok ep

let eplan_exn plan = or_invalid (eplan plan)

let run ?(mode = Exec.Full) ?alloc ?domains ?cost ?trace ?profile ?faults plan ~data =
  (* Full runs with the default options and no trace or profile replay
     the plan's cached executable plan. Everything else — Model mode,
     other options, copy traces, per-run profiles — asks for a
     simulation, which [Exec.execute] runs (and, in Full mode, replays
     once). *)
  let default_options =
    Option.is_none cost && Option.is_none faults && Option.is_none trace
    && Option.is_none profile
  in
  if mode = Exec.Full && default_options then
    let* ep = eplan plan in
    Exec.run_plan ?alloc ?domains ep ~data
  else
    Exec.execute ~mode ?domains ?trace ?profile ?faults (spec ?cost plan) ~data

let run_exn ?mode ?domains ?cost ?trace ?profile ?faults plan ~data =
  or_invalid (run ?mode ?domains ?cost ?trace ?profile ?faults plan ~data)

let estimate ?cost ?profile plan =
  match Exec.execute ~mode:Exec.Model ?profile (spec ?cost plan) ~data:[] with
  | Ok r -> r.Exec.stats
  | Error e -> invalid_arg ("Api.estimate: " ^ e)

let resilience ?cost ~faults plan =
  let profile = Obs.Profile.create () in
  Obs.Profile.set_next_run_name profile "fault-free";
  let* baseline =
    Exec.execute ~mode:Exec.Model ~profile (spec ?cost plan) ~data:[]
  in
  Obs.Profile.set_next_run_name profile "faulted";
  let* faulted =
    Exec.execute ~mode:Exec.Model ~profile ~faults (spec ?cost plan) ~data:[]
  in
  match Obs.Profile.runs profile with
  | [ b; f ] ->
      Ok
        ( baseline.Exec.stats,
          faulted.Exec.stats,
          Obs.Report.resilience_report ~baseline:b ~faulty:f )
  | runs -> errf "Api.resilience: expected 2 profile runs, got %d" (List.length runs)

let resilience_exn ?cost ~faults plan = or_invalid (resilience ?cost ~faults plan)

let random_inputs ?alloc ?domains ?(seed = 42) plan =
  let rng = Rng.create seed and pool = Distal_support.Pool.get ?size:domains () in
  let stmt = plan.problem.stmt in
  let out_name = stmt.lhs.tensor in
  (* The output needs input data when it is accumulated into, or when it is
     read on the right-hand side (self-referencing statements). *)
  let out_needs_data = stmt.accum || Expr.reads_output stmt in
  List.filter_map
    (fun t ->
      if String.equal t.name out_name && not out_needs_data then None
      else Some (t.name, Dense.random ?alloc ~pool rng t.shape))
    plan.problem.tensors

(* The data seed and the tolerance of [validate] and [validate_pipeline]. *)
let validate_seed = 42
let validate_tol = 1e-7

let validate plan =
  let data = random_inputs ~seed:validate_seed plan in
  let* result = run plan ~data in
  let expected =
    Exec.serial_reference plan.problem.stmt ~shapes:(shapes_of plan.problem.tensors)
      ~data
  in
  match result.Exec.output with
  | None -> Error "validate: execution produced no output"
  | Some got ->
      if Dense.approx_equal ~tol:validate_tol got expected then Ok ()
      else
        errf "distributed result differs from serial reference (max |diff| = %g)"
          (Dense.max_abs_diff got expected)

let describe plan =
  Printf.sprintf "concrete index notation:\n  %s\n\ngenerated program:\n%s"
    (Cin.to_string plan.cin)
    (Taskir.to_string plan.program)


(* {2 Requests: the serving layer's unit of work}

   A request is the whole compilation question in one immutable value —
   statement, schedule script, machine, virtual grid and tensor
   declarations — so a session layer (lib/serve) can key a plan cache on
   it without parsing anything first. *)

type request = {
  req_machine : Machine.t;
  req_virtual_grid : int array option;
  req_tensors : tensor list;
  req_stmt : string;
  req_schedule : string;
}

let request ?virtual_grid ~machine ~stmt ~schedule ~tensors () =
  {
    req_machine = machine;
    req_virtual_grid = virtual_grid;
    req_tensors = tensors;
    req_stmt = stmt;
    req_schedule = schedule;
  }

(* The canonical fingerprint. Built purely from the declarative request
   fields — never from compiler output — so a cache lookup costs a few
   string writes and an MD5, not a parse. Fields are length-delimited
   (every string is preceded by its byte length), which makes the
   encoding injective: no two distinct requests render to the same
   canonical string. *)
let request_fingerprint r =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let ints label a =
    str label;
    Buffer.add_string buf (String.concat "," (Array.to_list (Array.map string_of_int a)));
    Buffer.add_char buf ';'
  in
  let m = r.req_machine in
  ints "dims" m.Machine.dims;
  ints "nodes" m.Machine.node_factors;
  str (match m.Machine.kind with Machine.Cpu -> "cpu" | Machine.Gpu -> "gpu");
  str (Printf.sprintf "%h" m.Machine.mem_per_proc);
  (match r.req_virtual_grid with None -> str "none" | Some g -> ints "vgrid" g);
  str r.req_stmt;
  str r.req_schedule;
  List.iter
    (fun t ->
      str t.name;
      ints "shape" t.shape;
      str (Distnot.to_string t.dist))
    r.req_tensors;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let compile_request ?profile r =
  let* p =
    problem ?profile ?virtual_grid:r.req_virtual_grid ~machine:r.req_machine
      ~stmt:r.req_stmt ~tensors:r.req_tensors ()
  in
  compile_script ?profile p ~schedule:r.req_schedule

let compile_request_exn ?profile r = or_invalid (compile_request ?profile r)

type pipeline = { machine : Machine.t; tensors : tensor list; stages : plan list }

let pipeline ~machine ~tensors ~stages =
  let* stages =
    List.fold_left
      (fun acc (stmt, schedule) ->
        let* acc = acc in
        let* p = problem ~machine ~stmt ~tensors () in
        let* plan = compile p ~schedule in
        Ok (plan :: acc))
      (Ok []) stages
  in
  Ok { machine; tensors; stages = List.rev stages }

let pipeline_script ~machine ~tensors ~stages =
  let* stages =
    List.fold_left
      (fun acc (stmt, script) ->
        let* acc = acc in
        let* cmds = Schedule.parse script in
        Ok ((stmt, cmds) :: acc))
      (Ok []) stages
  in
  pipeline ~machine ~tensors ~stages:(List.rev stages)

let stage_output (plan : plan) = plan.problem.stmt.Expr.lhs.tensor

(* Every stage in order: each stage's output (by tensor name) and the
   summed statistics. *)
let run_pipeline pl ~data =
  let* outputs, stats =
    List.fold_left
      (fun acc plan ->
        let* outputs, stats = acc in
        let data = outputs @ data in
        let* r = run plan ~data in
        match r.Exec.output with
        | None -> Error "pipeline stage produced no output"
        | Some out ->
            Ok
              ( (stage_output plan, out) :: outputs,
                Stats.add stats r.Exec.stats ))
      (Ok ([], Stats.create ()))
      pl.stages
  in
  Ok (List.rev outputs, stats)

let estimate_pipeline ?cost pl =
  List.fold_left (fun acc plan -> Stats.add acc (estimate ?cost plan)) (Stats.create ())
    pl.stages

let validate_pipeline pl =
  (* Random data for every tensor no stage produces. *)
  let produced = List.map stage_output pl.stages in
  let rng = Rng.create validate_seed in
  let data =
    List.filter_map
      (fun t ->
        if List.mem t.name produced then None
        else Some (t.name, Dense.random rng t.shape))
      pl.tensors
  in
  let* outputs, _ = run_pipeline pl ~data in
  let shapes = shapes_of pl.tensors in
  let* _ =
    List.fold_left
      (fun acc plan ->
        let* expected_env = acc in
        let stmt = plan.problem.stmt in
        let expected = Exec.serial_reference stmt ~shapes ~data:(expected_env @ data) in
        let name = stage_output plan in
        let got = List.assoc name outputs in
        if Dense.approx_equal ~tol:validate_tol got expected then
          Ok ((name, expected) :: expected_env)
        else
          errf "pipeline stage %s differs from serial reference (max |diff| = %g)"
            name
            (Dense.max_abs_diff got expected))
      (Ok []) pl.stages
  in
  Ok ()

let redistribute ~machine ?cost ?profile ~shape ~src ~dst () =
  let cost = match cost with Some c -> c | None -> default_cost machine in
  Exec.redistribute ?profile machine cost ~shape ~src ~dst
