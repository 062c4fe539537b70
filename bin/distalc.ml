(* distalc — command-line driver for the DISTAL compiler pipeline (Fig. 3).

   Takes a tensor index notation statement, tensor declarations with
   distributions, a machine grid and a schedule script; prints the
   scheduled concrete index notation and the generated task-IR program;
   optionally validates the plan against the serial reference and prints
   the modeled execution profile.

   Example:

     distalc \
       --machine 2x2 \
       --tensor 'A:8x8:[x,y] -> [x,y]' \
       --tensor 'B:8x8:[x,y] -> [x,y]' \
       --tensor 'C:8x8:[x,y] -> [x,y]' \
       --stmt 'A(i,j) = B(i,k) * C(k,j)' \
       --schedule 'distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]);
                   split(k, ko, ki, 4); reorder(ko, ii, ji, ki);
                   communicate(A, jo); communicate({B,C}, ko);
                   substitute({ii,ji,ki}, gemm)' \
       --validate --estimate

   With --auto PROCS the distribution and schedule are searched for
   instead (declarations need only name:dims):

     distalc --auto 16 \
       --tensor A:4096x4096 --tensor B:4096x4096 --tensor C:4096x4096 \
       --stmt 'A(i,j) = B(i,k) * C(k,j)' --estimate *)

module Api = Distal.Api
module Machine = Api.Machine
module Stats = Api.Stats
module Obs = Distal_obs

let ( let* ) = Result.bind
let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let parse_dims s =
  let parts = String.split_on_char 'x' s in
  try Ok (Array.of_list (List.map int_of_string parts))
  with _ -> errf "bad dimension list %S (expected e.g. 2x2)" s

let parse_tensor_decl s =
  match String.split_on_char ':' s with
  | [ name; dims; dist ] ->
      let* shape = if dims = "scalar" then Ok [||] else parse_dims dims in
      let* dist = Distal_ir.Distnot.parse dist in
      Ok (Api.tensor_d name shape dist)
  | _ -> errf "bad tensor declaration %S (expected name:dims:dist)" s

(* {2 Auto mode: cost-guided schedule search}

   With --auto PROCS the schedule (and the tensors' distributions) are
   chosen by the Auto search instead of being spelled out: declarations
   need only name:dims, the search enumerates distributions and schedules
   over PROCS processors, and the report shows how many candidates were
   probed, pruned and answered from the memo cache. *)

let parse_auto_shape s =
  match String.split_on_char ':' s with
  | name :: dims :: _ ->
      let* shape = if dims = "scalar" then Ok [||] else parse_dims dims in
      Ok (name, shape)
  | _ -> errf "bad tensor declaration %S (expected name:dims)" s

let run_auto ~procs ~gpu ~tensors ~stmt ~validate ~estimate ~quiet =
  let module Auto = Distal_algorithms.Auto in
  let* stmt =
    match stmt with Some s -> Ok s | None -> Error "missing required option --stmt"
  in
  let* shapes =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* t = parse_auto_shape s in
        Ok (t :: acc))
      (Ok []) tensors
  in
  let shapes = List.rev shapes in
  let kind = if gpu then Machine.Gpu else Machine.Cpu in
  let mem = if gpu then 16e9 else 256e9 in
  let machine_of grid = Machine.grid ~kind ~mem_per_proc:mem grid in
  let* cs, report = Auto.search_report ~machine_of ~procs ~stmt ~shapes () in
  let best = List.hd cs in
  Printf.printf "auto: %s\n" (Auto.describe best);
  Printf.printf "auto: %s\n" (Auto.describe_report report);
  let hits, misses, evictions = Auto.cache_stats () in
  Printf.printf "auto: probe cache %d hits, %d misses, %d evictions\n" hits misses
    evictions;
  if not quiet then print_endline (Api.describe best.Auto.plan);
  let* () =
    if validate then begin
      let* () = Api.validate best.Auto.plan in
      print_endline "validation: OK (distributed result matches serial reference)";
      Ok ()
    end
    else Ok ()
  in
  if estimate then begin
    let s = best.Auto.stats in
    Printf.printf "estimate: %s\n" (Stats.to_string s);
    Printf.printf "estimate: %.2f GFLOP/s across %d processors\n" (Stats.gflops s) procs
  end;
  Ok ()

(* {2 Client mode: ship the request to a running distald}

   The same command line, but instead of compiling locally the request
   is framed over the serve wire protocol; the daemon's plan cache makes
   repeated shapes hot. --estimate maps to a Model-mode run (stats only,
   no output tensor), the default to a Full run on the seeded input
   stream. *)

module Serve = Distal_serve

let parse_remote_tensor s =
  match String.split_on_char ':' s with
  | [ name; dims; dist ] ->
      let* shape = if dims = "scalar" then Ok [||] else parse_dims dims in
      Ok { Serve.Protocol.td_name = name; td_shape = shape; td_dist = dist }
  | _ -> errf "bad tensor declaration %S (expected name:dims:dist)" s

(* One line per served-path stamp: requests through the layer and their
   mean wall time; then one line of the replay pool's counts, with the
   share of items its worker domains ran. *)
let print_layer_stamps metrics =
  let module J = Distal_support.Json in
  let field name f = Option.bind (Option.bind (J.member name metrics) (J.member f)) J.to_float in
  List.iter
    (fun name ->
      match (field name "count", field name "sum") with
      | Some n, Some sum when n > 0.0 ->
          Printf.printf "%-16s n=%-8.0f mean %.3f ms\n" name n (1e3 *. sum /. n)
      | _ -> ())
    [
      "serve.decode_s"; "serve.compile_s"; "serve.inputs_s"; "serve.run_s"; "serve.copy_s";
      "serve.reply_s";
    ];
  let pool g = field ("pool." ^ g) "value" in
  match List.map pool [ "jobs"; "items"; "worker_items"; "busy_fallbacks" ] with
  | [ Some jobs; Some items; Some workers; Some busy ] ->
      Printf.printf "pool jobs=%.0f items=%.0f worker_items=%.0f (%.1f%%) busy_fallbacks=%.0f\n"
        jobs items workers
        (if items > 0.0 then 100.0 *. workers /. items else 0.0)
        busy
  | _ -> ()

let run_connect ~socket ~serve_stats ~serve_shutdown ~machine_dims ~gpu ~tensors ~stmt
    ~schedule ~estimate ~seed ~faults =
  let* client = Serve.Client.connect socket in
  let finally r = Serve.Client.close client; r in
  finally
  @@
  if serve_shutdown then
    let* () = Serve.Client.shutdown client in
    Ok (print_endline "distald: shutdown acknowledged")
  else if serve_stats then
    let* queue_depth, served, metrics = Serve.Client.stats client in
    Printf.printf "queue depth: %d\nserved: %d\n" queue_depth served;
    print_layer_stamps metrics;
    print_endline (Distal_support.Json.to_string_pretty metrics);
    Ok ()
  else
    let* stmt =
      match stmt with Some s -> Ok s | None -> Error "--connect submit needs --stmt"
    in
    let* machine_dims = parse_dims machine_dims in
    let* tensors =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          let* t = parse_remote_tensor s in
          Ok (t :: acc))
        (Ok []) tensors
    in
    let mode = if estimate then Api.Exec.Model else Api.Exec.Full in
    let submit =
      Serve.Protocol.submit ~gpu ~mode ~seed ?faults
        ~id:(Serve.Client.fresh_id client)
        ~machine_dims ~tensors:(List.rev tensors) ~stmt ~schedule ()
    in
    let* response = Serve.Client.submit_wait client submit in
    match response with
    | Serve.Client.Rejected { retry_after_s; reason } ->
        errf "rejected by admission control: %s (retry after %gs)" reason retry_after_s
    | Serve.Client.Failed reason -> errf "request failed: %s" reason
    | Serve.Client.Ok_result r ->
        Printf.printf "served: plan %s, result %s, batch of %d\n"
          (if r.Serve.Protocol.plan_cached then "cached" else "compiled")
          (if r.Serve.Protocol.result_cached then "replayed" else "executed")
          r.Serve.Protocol.batch;
        Printf.printf "stats: %s\n" (Stats.to_string r.Serve.Protocol.stats);
        (match r.Serve.Protocol.output with
        | None -> ()
        | Some out ->
            let module Dense = Distal_tensor.Dense in
            let sum = Dense.fold ( +. ) 0.0 out in
            Printf.printf "output: %d elements, sum %.17g\n" (Dense.size out) sum);
        Ok ()

let run_pipeline ~machine_dims ~gpu ~tensors ~stmt ~schedule ~validate ~estimate ~quiet
    ~emit_legion ~profile_out ~faults =
  let* stmt =
    match stmt with Some s -> Ok s | None -> Error "missing required option --stmt"
  in
  let profile = Option.map (fun _ -> Obs.Profile.create ()) profile_out in
  let* machine_dims = parse_dims machine_dims in
  let kind = if gpu then Machine.Gpu else Machine.Cpu in
  let mem = if gpu then 16e9 else 256e9 in
  let machine = Machine.grid ~kind ~mem_per_proc:mem machine_dims in
  let* tensors =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* t = parse_tensor_decl s in
        Ok (t :: acc))
      (Ok []) tensors
  in
  let* problem = Api.problem ?profile ~machine ~stmt ~tensors:(List.rev tensors) () in
  let* plan = Api.compile_script ?profile problem ~schedule in
  if not quiet then print_endline (Api.describe plan);
  if emit_legion then
    print_endline (Distal_ir.Codegen_legion.emit plan.Api.program);
  let* () =
    if validate then begin
      let* () = Api.validate plan in
      print_endline "validation: OK (distributed result matches serial reference)";
      Ok ()
    end
    else Ok ()
  in
  if estimate then begin
    let s = Api.estimate ?profile plan in
    Printf.printf "estimate: %s\n" (Stats.to_string s);
    Printf.printf "estimate: %.2f GFLOP/s across %d processors\n" (Stats.gflops s)
      (Machine.num_procs machine)
  end;
  let* () =
    match faults with
    | None -> Ok ()
    | Some spec ->
        let* fplan = Api.Fault.parse spec in
        let* _, _, report = Api.resilience ~faults:fplan plan in
        print_string report;
        Ok ()
  in
  match (profile, profile_out) with
  | Some p, Some file ->
      (* The trace needs a run to be interesting; profile implies a modeled
         execution even without --estimate. *)
      if Obs.Profile.runs p = [] then ignore (Api.estimate ~profile:p plan);
      let* () =
        try Ok (Obs.Chrome_trace.save ~file p)
        with Sys_error e -> errf "cannot write profile: %s" e
      in
      List.iter
        (fun (run : Obs.Profile.run) -> print_string (Obs.Report.run_report run))
        (Obs.Profile.runs p);
      Printf.printf "profile: wrote %s (load it at https://ui.perfetto.dev)\n" file;
      Ok ()
  | _ -> Ok ()

open Cmdliner

let machine_arg =
  Arg.(value & opt string "1" & info [ "machine"; "m" ] ~docv:"DIMS"
         ~doc:"Machine grid, e.g. 2x2 or 4x4x4.")

let gpu_arg = Arg.(value & flag & info [ "gpu" ] ~doc:"GPU processors (16 GB each).")

let tensor_arg =
  Arg.(value & opt_all string [] & info [ "tensor"; "t" ] ~docv:"DECL"
         ~doc:"Tensor declaration name:dims:distribution, e.g. 'A:8x8:[x,y] -> [x,y]'. \
               Use dims 'scalar' for a 0-d tensor. Repeatable.")

let stmt_arg =
  Arg.(value & opt (some string) None & info [ "stmt"; "s" ] ~docv:"STMT"
         ~doc:"Tensor index notation statement, e.g. 'A(i,j) = B(i,k) * C(k,j)'. \
               Required except for --connect with --serve-stats/--serve-shutdown.")

let schedule_arg =
  Arg.(value & opt string "" & info [ "schedule" ] ~docv:"SCRIPT"
         ~doc:"Schedule script (semicolon-separated commands). Empty compiles the \
               default single-task program.")

let validate_arg =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Execute on random data and compare against the serial reference.")

let estimate_arg =
  Arg.(value & flag & info [ "estimate" ] ~doc:"Print the modeled execution profile.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Do not print the generated program.")

let emit_legion_arg =
  Arg.(value & flag & info [ "emit-legion" ]
         ~doc:"Print the generated Legion C++ translation unit.")

let profile_arg =
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE"
         ~doc:"Profile the compile and the modeled execution; write a Chrome \
               trace_event JSON to $(docv) (loadable at https://ui.perfetto.dev) \
               and print the per-step and critical-path report.")

let faults_arg =
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN"
         ~doc:"Model the schedule under a fault plan and print the resilience \
               report (fault-free vs. faulted). Semicolon-separated clauses: \
               'checkpoint' or 'checkpoint=N' (rollback boundary every N steps), \
               'kill(proc=P, step=K)' optionally with 'revive=R', \
               'drop(tensor=T, src=S, dst=D, step=K)' and \
               'delay(by=SECONDS, ...)' with the same optional message filters. \
               Example: 'checkpoint=2; kill(proc=1, step=3)'.")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"SOCKET"
         ~doc:"Do not compile locally; submit the request to the distald daemon \
               listening on the Unix-domain socket $(docv). With --estimate the \
               daemon runs in model mode (stats only); otherwise a full run on \
               the seeded input stream, printing the output summary.")

let serve_stats_arg =
  Arg.(value & flag & info [ "serve-stats" ]
         ~doc:"With --connect: print the daemon's queue depth, served count and \
               serve.* metrics, then exit.")

let serve_shutdown_arg =
  Arg.(value & flag & info [ "serve-shutdown" ]
         ~doc:"With --connect: ask the daemon to drain its queue and exit.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"With --connect: the deterministic input stream the daemon runs on.")

let auto_arg =
  Arg.(value & opt (some int) None & info [ "auto" ] ~docv:"PROCS"
         ~doc:"Choose distributions and a schedule automatically by cost-guided \
               search over $(docv) processors (tensor declarations need only \
               name:dims; --machine and --schedule are ignored). Prints the chosen \
               candidate and the search report: candidates probed, pruned and \
               answered from the memo cache.")

let cmd =
  let doc = "compile tensor index notation to a distributed task program" in
  let run machine_dims gpu tensors stmt schedule validate estimate quiet emit_legion
      profile_out faults connect serve_stats serve_shutdown seed auto =
    let result =
      match (auto, connect) with
      | Some _, Some _ -> Error "--auto cannot be combined with --connect"
      | Some procs, None -> run_auto ~procs ~gpu ~tensors ~stmt ~validate ~estimate ~quiet
      | None, Some socket ->
          run_connect ~socket ~serve_stats ~serve_shutdown ~machine_dims ~gpu ~tensors
            ~stmt ~schedule ~estimate ~seed ~faults
      | None, None ->
          if serve_stats || serve_shutdown then
            Error "--serve-stats/--serve-shutdown need --connect"
          else
            run_pipeline ~machine_dims ~gpu ~tensors ~stmt ~schedule ~validate
              ~estimate ~quiet ~emit_legion ~profile_out ~faults
    in
    match result with Ok () -> `Ok () | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "distalc" ~doc)
    Term.(
      ret
        (const run $ machine_arg $ gpu_arg $ tensor_arg $ stmt_arg $ schedule_arg
       $ validate_arg $ estimate_arg $ quiet_arg $ emit_legion_arg $ profile_arg
       $ faults_arg $ connect_arg $ serve_stats_arg $ serve_shutdown_arg $ seed_arg
       $ auto_arg))

let () = exit (Cmd.eval cmd)
