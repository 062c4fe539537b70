(* lib/fault end-to-end: the plan syntax, the injector's run-resolved
   queries, failover mapping, and the executor's recovery contract — an
   empty plan changes nothing (byte-identity), checkpointing alone costs
   no simulated time, a kill is recovered bit-identically with a priced
   recovery episode, message faults cost time but never bytes, and all of
   it holds across domain counts and the communication-planner switch. *)

module Api = Distal.Api
module Dense = Api.Dense
module Exec = Api.Exec
module Stats = Api.Stats
module Fault = Api.Fault
module Injector = Distal_fault.Injector
module Mapper = Distal_runtime.Mapper
module Profile = Distal_obs.Profile
module Metrics = Distal_obs.Metrics
module Cp = Distal_obs.Critical_path
module Chrome_trace = Distal_obs.Chrome_trace

(* {2 Plan syntax} *)

let roundtrip s =
  match Fault.parse s with
  | Error e -> Alcotest.failf "parse %S failed: %s" s e
  | Ok p -> (
      match Fault.parse (Fault.to_string p) with
      | Error e ->
          Alcotest.failf "re-parse of %S failed: %s" (Fault.to_string p) e
      | Ok p' ->
          if p <> p' then
            Alcotest.failf "%S does not round-trip through %S" s
              (Fault.to_string p);
          p)

let test_parse_roundtrip () =
  let p =
    roundtrip
      "checkpoint=2; kill(proc=1, step=3, revive=5); drop(tensor=A, src=0, \
       dst=1, step=2); delay(by=0.5, dst=3)"
  in
  Alcotest.(check bool) "checkpoint" true p.Fault.checkpoint;
  Alcotest.(check int) "interval" 2 p.Fault.interval;
  (match p.Fault.kills with
  | [ k ] ->
      Alcotest.(check int) "proc" 1 k.Fault.proc;
      Alcotest.(check int) "step" 3 k.Fault.at_step;
      Alcotest.(check (option int)) "revive" (Some 5) k.Fault.revive_at
  | ks -> Alcotest.failf "expected 1 kill, got %d" (List.length ks));
  (match p.Fault.messages with
  | [ (dp, Fault.Drop); (yp, Fault.Delay d) ] ->
      Alcotest.(check (option string)) "drop tensor" (Some "A") dp.Fault.tensor;
      Alcotest.(check (option int)) "drop src" (Some 0) dp.Fault.src;
      Alcotest.(check (option int)) "drop dst" (Some 1) dp.Fault.dst;
      Alcotest.(check (option int)) "drop step" (Some 2) dp.Fault.at_step;
      Alcotest.(check (float 0.0)) "delay by" 0.5 d;
      Alcotest.(check (option int)) "delay dst" (Some 3) yp.Fault.dst;
      Alcotest.(check (option string)) "delay tensor" None yp.Fault.tensor
  | _ -> Alcotest.fail "expected drop then delay");
  ignore (roundtrip "kill(proc=0, step=0)");
  ignore (roundtrip "checkpoint");
  ignore (roundtrip "delay(by=1e-3)")

let test_parse_errors () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok _ -> Alcotest.failf "parse %S should have failed" s
      | Error _ -> ())
    [
      ""; "   "; "explode(proc=1)"; "kill(proc=1)"; "kill(step=2)";
      "kill(proc=x, step=2)"; "checkpoint=0"; "checkpoint=two";
      "kill(proc=1, step=2, colour=red)"; "delay(tensor=A)"; "drop(by=2)";
      "kill(proc=1 step=2)";
    ];
  match Fault.plan ~interval:0 () with
  | _ -> Alcotest.fail "Fault.plan ~interval:0 should raise"
  | exception Invalid_argument _ -> ()

let test_validate () =
  let chk what plan ~nprocs ok =
    match Fault.validate plan ~nprocs with
    | Ok () -> if not ok then Alcotest.failf "%s: expected a validate error" what
    | Error e -> if ok then Alcotest.failf "%s: unexpected error: %s" what e
  in
  chk "in range" (Fault.plan ~kills:[ Fault.kill ~proc:3 ~step:0 () ] ())
    ~nprocs:4 true;
  chk "proc out of range"
    (Fault.plan ~kills:[ Fault.kill ~proc:4 ~step:0 () ] ())
    ~nprocs:4 false;
  chk "revive not after kill"
    (Fault.plan ~kills:[ Fault.kill ~revive_at:1 ~proc:0 ~step:1 () ] ())
    ~nprocs:2 false;
  chk "negative delay"
    (Fault.plan ~messages:[ Fault.delay (-1.0) () ] ())
    ~nprocs:2 false;
  chk "message src out of range"
    (Fault.plan ~messages:[ Fault.drop ~src:5 () ] ())
    ~nprocs:4 false

(* {2 Injector} *)

let test_injector () =
  let plan =
    Fault.plan ~checkpoint:true ~interval:2
      ~kills:[ Fault.kill ~revive_at:4 ~proc:1 ~step:2 () ]
      ()
  in
  (match Injector.create plan ~nprocs:4 ~nsteps:6 with
  | Error e -> Alcotest.fail e
  | Ok i ->
      Alcotest.(check bool) "checkpointing" true (Injector.checkpointing i);
      Alcotest.(check int) "interval" 2 (Injector.interval i);
      Alcotest.(check bool) "has kills" true (Injector.has_kills i);
      Alcotest.(check (list (pair int int))) "kills" [ (1, 2) ] (Injector.kills i);
      Alcotest.(check bool) "alive before" false (Injector.dead i ~step:1 ~proc:1);
      Alcotest.(check bool) "dead at strike" true (Injector.dead i ~step:2 ~proc:1);
      Alcotest.(check bool) "still dead" true (Injector.dead i ~step:3 ~proc:1);
      Alcotest.(check bool) "revived" false (Injector.dead i ~step:4 ~proc:1);
      Alcotest.(check bool) "others alive" false (Injector.dead i ~step:2 ~proc:0);
      Alcotest.(check int) "boundary 5 -> 4" 4 (Injector.last_boundary i ~step:5);
      Alcotest.(check int) "boundary 3 -> 2" 2 (Injector.last_boundary i ~step:3);
      Alcotest.(check int) "boundary 1 -> 0" 0 (Injector.last_boundary i ~step:1));
  (* Without checkpointing, recovery replays from step 0. *)
  (match
     Injector.create
       (Fault.plan ~kills:[ Fault.kill ~proc:0 ~step:1 () ] ())
       ~nprocs:2 ~nsteps:4
   with
  | Error e -> Alcotest.fail e
  | Ok i ->
      Alcotest.(check int) "no checkpoint -> 0" 0 (Injector.last_boundary i ~step:3));
  (* A kill aimed past the run never strikes. *)
  (match
     Injector.create
       (Fault.plan ~kills:[ Fault.kill ~proc:0 ~step:9 () ] ())
       ~nprocs:2 ~nsteps:4
   with
  | Error e -> Alcotest.fail e
  | Ok i ->
      Alcotest.(check bool) "never strikes" false (Injector.has_kills i);
      Alcotest.(check bool) "never dead" false (Injector.dead i ~step:3 ~proc:0));
  (* Killing every processor leaves nowhere to fail over to. *)
  (match
     Injector.create
       (Fault.plan
          ~kills:[ Fault.kill ~proc:0 ~step:0 (); Fault.kill ~proc:1 ~step:0 () ]
          ())
       ~nprocs:2 ~nsteps:2
   with
  | Ok _ -> Alcotest.fail "all-dead plan should be rejected"
  | Error _ -> ());
  match
    Injector.create
      (Fault.plan ~kills:[ Fault.kill ~proc:7 ~step:0 () ] ())
      ~nprocs:4 ~nsteps:2
  with
  | Ok _ -> Alcotest.fail "out-of-range kill should be rejected"
  | Error _ -> ()

let test_msg_action () =
  let plan =
    Fault.plan
      ~messages:[ Fault.drop ~tensor:"A" ~step:1 (); Fault.delay 0.5 () ]
      ()
  in
  (match Injector.create plan ~nprocs:2 ~nsteps:4 with
  | Error e -> Alcotest.fail e
  | Ok i ->
      (match Injector.msg_action i ~step:1 ~tensor:"A" ~src:0 ~dst:1 with
      | Some Fault.Drop -> ()
      | _ -> Alcotest.fail "first matching fault should win");
      (match Injector.msg_action i ~step:0 ~tensor:"A" ~src:0 ~dst:1 with
      | Some (Fault.Delay d) -> Alcotest.(check (float 0.0)) "delay" 0.5 d
      | _ -> Alcotest.fail "catch-all delay should match"));
  match Injector.create (Fault.plan ~messages:[ Fault.drop ~src:1 () ] ()) ~nprocs:2 ~nsteps:2 with
  | Error e -> Alcotest.fail e
  | Ok i -> (
      match Injector.msg_action i ~step:0 ~tensor:"B" ~src:0 ~dst:1 with
      | None -> ()
      | Some _ -> Alcotest.fail "src filter should not match src=0")

let test_fallback () =
  let dead l p = List.mem p l in
  Alcotest.(check int) "alive stays" 2 (Mapper.fallback ~nprocs:4 ~dead:(dead [ 1 ]) 2);
  Alcotest.(check int) "next live" 2 (Mapper.fallback ~nprocs:4 ~dead:(dead [ 1 ]) 1);
  Alcotest.(check int) "skips a dead run" 3
    (Mapper.fallback ~nprocs:4 ~dead:(dead [ 1; 2 ]) 1);
  Alcotest.(check int) "wraps" 0 (Mapper.fallback ~nprocs:4 ~dead:(dead [ 3 ]) 3);
  match Mapper.fallback ~nprocs:2 ~dead:(fun _ -> true) 0 with
  | _ -> Alcotest.fail "expected Invalid_argument when every processor is dead"
  | exception Invalid_argument _ -> ()

let test_random_kill_deterministic () =
  let a = Fault.random_kill ~seed:11 ~nprocs:6 ~nsteps:5 in
  let b = Fault.random_kill ~seed:11 ~nprocs:6 ~nsteps:5 in
  Alcotest.(check bool) "equal seeds, equal plans" true (a = b);
  Alcotest.(check bool) "checkpointing on" true a.Fault.checkpoint;
  match a.Fault.kills with
  | [ k ] ->
      Alcotest.(check bool) "proc in range" true (k.Fault.proc >= 0 && k.Fault.proc < 6);
      Alcotest.(check bool) "step in range" true
        (k.Fault.at_step >= 0 && k.Fault.at_step < 5)
  | _ -> Alcotest.fail "expected exactly one kill"

(* {2 Executor contract} *)

let grid_plan () = Api.compile_request_exn Test_oracle.grid_gemm
let reduction_plan () = Api.compile_request_exn Test_oracle.reduction

(* Everything observable about a Full-mode run. *)
let observe ?faults ?(domains = 1) plan ~data =
  let profile = Profile.create () in
  let trace = ref [] in
  let r = Api.run_exn ~mode:Exec.Full ~domains ~trace ~profile ?faults plan ~data in
  let bits =
    match r.Exec.output with
    | None -> []
    | Some out ->
        List.init (Dense.size out) (fun i ->
            Int64.bits_of_float (Dense.get_lin out i))
  in
  ( bits,
    List.map Exec.trace_to_string !trace,
    Stats.to_string r.Exec.stats,
    Chrome_trace.to_string (Profile.events profile) )

(* The metrics registry of one profiled Model run. *)
let model_registry ?faults plan =
  let profile = Profile.create () in
  (match Api.run ~mode:Exec.Model ~profile ?faults plan ~data:[] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "model run failed: %s" e);
  match Profile.runs profile with
  | [ run ] -> run.Profile.metrics
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

let metric ?faults plan name =
  Option.value (Metrics.value (model_registry ?faults plan) name) ~default:0.0

(* An absent plan, the empty plan, and checkpointing with no faults must
   all be byte-identical in results, traces, stats and event streams —
   the fault machinery may not perturb fault-free execution. An empty plan
   also registers no instrument a run without one lacks. *)
let check_fault_free_identity plan ~what =
  Alcotest.(check (list string))
    (what ^ ": metric names with the empty plan")
    (Metrics.names (model_registry plan))
    (Metrics.names (model_registry ~faults:Fault.empty plan));
  let data = Api.random_inputs plan in
  let base = observe plan ~data in
  List.iter
    (fun (label, faults) ->
      if observe ~faults plan ~data <> base then
        Alcotest.failf "%s: %s changed a fault-free run" what label)
    [
      ("empty plan", Fault.empty);
      ("checkpointing only", Fault.plan ~checkpoint:true ());
      ("checkpointing every 2 steps", Fault.plan ~checkpoint:true ~interval:2 ());
      ("kill past the run", Fault.plan ~kills:[ Fault.kill ~proc:0 ~step:999 () ] ());
    ]

let test_fault_free_identity () =
  check_fault_free_identity (grid_plan ()) ~what:"grid gemm";
  check_fault_free_identity (reduction_plan ())
    ~what:"distributed reduction"

let kill_plan ?(checkpoint = true) () =
  Fault.plan ~checkpoint ~kills:[ Fault.kill ~proc:1 ~step:2 () ] ()

let test_kill_recovers_bit_identically () =
  List.iter
    (fun plan ->
      let data = Api.random_inputs plan in
      let clean_bits, _, _, _ = observe plan ~data in
      let faults = kill_plan () in
      let bits, _, _, _ = observe ~faults plan ~data in
      Alcotest.(check bool) "replayed output bit-identical" true (bits = clean_bits);
      (* And independently of the domain count. *)
      let b, _, _, _ = observe ~faults ~domains:3 plan ~data in
      Alcotest.(check bool) "domains=3" true (b = clean_bits))
    [ grid_plan (); reduction_plan () ]

let test_kill_prices_recovery () =
  let plan = grid_plan () in
  let t_clean = metric plan "exec.time" in
  let faults = kill_plan () in
  Alcotest.(check bool) "faulted run is slower" true
    (metric ~faults plan "exec.time" > t_clean);
  Alcotest.(check (float 0.0)) "one fault" 1.0 (metric ~faults plan "exec.faults_injected");
  Alcotest.(check bool) "recovery time priced" true
    (metric ~faults plan "exec.recovery_time" > 0.0);
  Alcotest.(check bool) "steps replayed" true
    (metric ~faults plan "exec.replayed_steps" >= 1.0);
  Alcotest.(check bool) "checkpoints written" true
    (metric ~faults plan "exec.checkpoint_bytes" > 0.0);
  (* Full and Model mode agree on the faulted stats, exactly. *)
  let data = Api.random_inputs plan in
  let full = Api.run_exn ~mode:Exec.Full ~faults plan ~data in
  let model = Api.run_exn ~mode:Exec.Model ~faults plan ~data:[] in
  Alcotest.(check string) "faulted Full/Model parity"
    (Stats.to_string full.Exec.stats)
    (Stats.to_string model.Exec.stats)

let test_checkpoint_shortens_replay () =
  let plan = grid_plan () in
  let with_ck = metric ~faults:(kill_plan ()) plan "exec.replayed_steps" in
  let without = metric ~faults:(kill_plan ~checkpoint:false ()) plan "exec.replayed_steps" in
  (* The kill strikes step 2: with per-step boundaries only that step
     replays; without checkpointing the whole prefix does. *)
  Alcotest.(check (float 0.0)) "with checkpointing" 1.0 with_ck;
  Alcotest.(check (float 0.0)) "full restart" 3.0 without;
  Alcotest.(check bool) "restart costs more" true
    (metric ~faults:(kill_plan ~checkpoint:false ()) plan "exec.recovery_time"
    > metric ~faults:(kill_plan ()) plan "exec.recovery_time")

let test_message_faults_cost_time_not_bytes () =
  let plan = grid_plan () in
  let t_clean = metric plan "exec.time" in
  let drop = Fault.plan ~messages:[ Fault.drop () ] () in
  let delay = Fault.plan ~messages:[ Fault.delay 1e-3 () ] () in
  Alcotest.(check bool) "drop costs a retransmit" true
    (metric ~faults:drop plan "exec.time" > t_clean);
  Alcotest.(check bool) "delay holds the receiver back" true
    (metric ~faults:delay plan "exec.time" > t_clean);
  (* Payload accounting is untouched: the same bytes and messages move. *)
  List.iter
    (fun name ->
      Alcotest.(check (float 0.0)) name (metric plan name) (metric ~faults:drop plan name))
    [ "exec.bytes_intra"; "exec.bytes_inter"; "exec.messages" ];
  (* Plan-driven faults keep Full/Model parity. *)
  let data = Api.random_inputs plan in
  let full = Api.run_exn ~mode:Exec.Full ~faults:drop plan ~data in
  let model = Api.run_exn ~mode:Exec.Model ~faults:drop plan ~data:[] in
  Alcotest.(check string) "dropped Full/Model parity"
    (Stats.to_string full.Exec.stats)
    (Stats.to_string model.Exec.stats)

let test_faulted_timeline_consistent () =
  let plan = grid_plan () in
  let profile = Profile.create () in
  let faults = kill_plan () in
  let r = Api.run_exn ~mode:Exec.Model ~profile ~faults plan ~data:[] in
  match Profile.runs profile with
  | [ run ] -> (
      match run.Profile.timeline with
      | None -> Alcotest.fail "no timeline recorded"
      | Some tl ->
          Alcotest.(check (float 1e-12)) "timeline total = stats time"
            r.Exec.stats.Stats.time tl.Cp.total;
          let cp = Cp.analyse tl in
          Alcotest.(check (float 1e-12)) "critical path reproduces the total"
            tl.Cp.total cp.Cp.end_time;
          Alcotest.(check bool) "recovery on the path" true (cp.Cp.recovery > 0.0))
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

let test_resilience_report () =
  let plan = grid_plan () in
  let clean, faulted, report = Api.resilience_exn ~faults:(kill_plan ()) plan in
  Alcotest.(check bool) "faulted slower" true (faulted.Stats.time > clean.Stats.time);
  let has sub = Astring_contains.contains report sub in
  Alcotest.(check bool) "report header" true (has "resilience report");
  Alcotest.(check bool) "report names runs" true (has "fault-free" && has "faulted");
  Alcotest.(check bool) "report counts faults" true (has "faults injected: 1")

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "plan syntax round-trips" `Quick test_parse_roundtrip;
        Alcotest.test_case "plan syntax errors" `Quick test_parse_errors;
        Alcotest.test_case "plan validation" `Quick test_validate;
        Alcotest.test_case "injector queries" `Quick test_injector;
        Alcotest.test_case "message fault matching" `Quick test_msg_action;
        Alcotest.test_case "failover mapping" `Quick test_fallback;
        Alcotest.test_case "random_kill deterministic" `Quick
          test_random_kill_deterministic;
        Alcotest.test_case "fault-free byte-identity" `Quick test_fault_free_identity;
        Alcotest.test_case "kill recovers bit-identically" `Quick
          test_kill_recovers_bit_identically;
        Alcotest.test_case "kill prices a recovery episode" `Quick
          test_kill_prices_recovery;
        Alcotest.test_case "checkpointing shortens replay" `Quick
          test_checkpoint_shortens_replay;
        Alcotest.test_case "message faults cost time, not bytes" `Quick
          test_message_faults_cost_time_not_bytes;
        Alcotest.test_case "faulted timeline stays consistent" `Quick
          test_faulted_timeline_consistent;
        Alcotest.test_case "resilience report" `Quick test_resilience_report;
      ] );
  ]
