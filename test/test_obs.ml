(* The observability subsystem (lib/obs): JSON round-trips, the metrics
   registry, Chrome-trace export (valid and deterministic across execution
   modes), critical-path analysis reproducing the simulator's total time,
   and profiled redistribution. *)

module Api = Distal.Api
module Machine = Api.Machine
module Obs = Distal_obs
module Json = Obs.Json
module Event = Obs.Event
module Metrics = Obs.Metrics
module Profile = Obs.Profile
module Cp = Obs.Critical_path
module M = Distal_algorithms.Matmul
module Figure = Distal_harness.Figure

let contains = Astring_contains.contains

let cannon33 () =
  let machine = Machine.grid [| 3; 3 |] in
  (Result.get_ok (M.cannon ~n:9 ~machine)).M.plan

(* {2 JSON} *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null; Json.Bool false ]);
        ("s", Json.String "quote \" backslash \\ newline \n unicode \t");
        ("nested", Json.Obj [ ("empty", Json.List []) ]);
        ("neg", Json.Float (-1.25e-3));
      ]
  in
  (match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "compact round trips" true (j = j')
  | Error e -> Alcotest.fail ("compact: " ^ e));
  match Json.parse (Json.to_string_pretty j) with
  | Ok j' -> Alcotest.(check bool) "pretty round trips" true (j = j')
  | Error e -> Alcotest.fail ("pretty: " ^ e)

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" s)
      | exception e -> Alcotest.failf "%S raised %s" s (Printexc.to_string e))
    [ "{"; "[1,"; "tru"; "\"unterminated"; ""; "\"\\uzzzz\""; "\"a\\u12\""; "\"a\\q\"";
      "\"\\u_41_\""; "\"\\u1_2a\""; "\"\\u+041\"" ]

(* {2 Metrics} *)

let test_metrics_registry () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  Metrics.inc c 2.0;
  Metrics.inc_int c 3;
  let g = Metrics.gauge reg "g" in
  Metrics.set g 7.0;
  Metrics.set_max g 5.0;
  let h = Metrics.histogram reg "h" in
  Metrics.observe h 10.0;
  Metrics.observe h 30.0;
  Alcotest.(check (option (float 0.0))) "counter" (Some 5.0) (Metrics.value reg "c");
  Alcotest.(check (option (float 0.0))) "gauge keeps max" (Some 7.0)
    (Metrics.value reg "g");
  Alcotest.(check (option (float 0.0))) "histogram sums" (Some 40.0)
    (Metrics.value reg "h");
  Alcotest.(check (option (float 0.0))) "missing" None (Metrics.value reg "nope");
  Alcotest.(check (list string)) "names sorted" [ "c"; "g"; "h" ] (Metrics.names reg);
  (match Metrics.gauge reg "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise");
  match Json.parse (Json.to_string (Metrics.to_json reg)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("metrics json: " ^ e)

(* [observe_n h v k] leaves the histogram k [observe h v] calls leave:
   count, buckets, min, max and the sum's bits, which depend on adding
   [v] one at a time (0.1 added three times is not 0.3). *)
let test_observe_n () =
  List.iter
    (fun (prior, v, k) ->
      let hist () =
        let reg = Metrics.create () in
        let h = Metrics.histogram reg "h" in
        List.iter (Metrics.observe h) prior;
        (reg, h)
      in
      let reg_n, h_n = hist () and reg_1, h_1 = hist () in
      Metrics.observe_n h_n v k;
      for _ = 1 to k do
        Metrics.observe h_1 v
      done;
      let what = Printf.sprintf "%g x %d" v k in
      Alcotest.(check int) (what ^ " count") (Metrics.histogram_count h_1)
        (Metrics.histogram_count h_n);
      Alcotest.(check (option int64))
        (what ^ " sum bits")
        (Option.map Int64.bits_of_float (Metrics.value reg_1 "h"))
        (Option.map Int64.bits_of_float (Metrics.value reg_n "h"));
      Alcotest.(check string) (what ^ " json") (Json.to_string (Metrics.to_json reg_1))
        (Json.to_string (Metrics.to_json reg_n)))
    [
      ([], 0.1, 3);
      ([ 1e-3 ], 0.1, 7);
      ([ 5.0; 2e6 ], 4096.0, 15);
      ([ 3.0 ], 1e13, 2);
      ([ 3.0 ], 7.0, 1);
      ([ 3.0 ], 7.0, 0);
      ([], 2.5, 0);
    ]

let test_stats_of_registry () =
  let reg = Metrics.create () in
  Metrics.set (Metrics.gauge reg "exec.time") 2.5;
  Metrics.inc (Metrics.counter reg "exec.flops") 100.0;
  Metrics.inc_int (Metrics.counter reg "exec.messages") 7;
  let s = Distal_runtime.Stats.of_registry reg in
  Alcotest.(check (float 0.0)) "time" 2.5 s.Distal_runtime.Stats.time;
  Alcotest.(check (float 0.0)) "flops" 100.0 s.Distal_runtime.Stats.flops;
  Alcotest.(check int) "messages" 7 s.Distal_runtime.Stats.messages;
  Alcotest.(check bool) "oom defaults false" false s.Distal_runtime.Stats.oom

(* {2 Chrome-trace export} *)

let trace_of_mode mode =
  let p = Profile.create () in
  let plan = cannon33 () in
  let data =
    match mode with Api.Exec.Full -> Api.random_inputs plan | Api.Exec.Model -> []
  in
  let r = Api.run_exn ~mode ~profile:p plan ~data in
  (Obs.Chrome_trace.of_profile p, r.Api.Exec.stats)

let test_trace_valid_json () =
  let trace, _ = trace_of_mode Api.Exec.Model in
  match Json.parse trace with
  | Error e -> Alcotest.fail ("trace is not valid JSON: " ^ e)
  | Ok j ->
      (match Json.member "traceEvents" j with
      | Some (Json.List events) ->
          Alcotest.(check bool) "has events" true (List.length events > 10)
      | _ -> Alcotest.fail "no traceEvents array");
      Alcotest.(check bool) "compute slices" true (contains trace "\"compute\"");
      Alcotest.(check bool) "comm slices" true (contains trace "\"comm\"");
      Alcotest.(check bool) "thread metadata" true (contains trace "thread_name")

let test_full_model_deterministic () =
  (* The event stream is driven by the cost model, never by the data, so a
     functional (Full) run and a Model run of the same spec must export
     byte-identical traces, and the simulated stats must agree. *)
  let full, fstats = trace_of_mode Api.Exec.Full in
  let model, mstats = trace_of_mode Api.Exec.Model in
  Alcotest.(check bool) "identical event streams" true (String.equal full model);
  Alcotest.(check (float 0.0)) "identical times" fstats.Api.Stats.time
    mstats.Api.Stats.time

(* {2 Critical path} *)

let analysed_run ?(data = []) ?(mode = Api.Exec.Model) plan =
  let p = Profile.create () in
  let r = Api.run_exn ~mode ~profile:p plan ~data in
  match Profile.runs p with
  | [ run ] -> (run, r.Api.Exec.stats)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 run, got %d" (List.length rs))

let test_critical_path_cannon () =
  let run, stats = analysed_run (cannon33 ()) in
  match run.Profile.timeline with
  | None -> Alcotest.fail "no timeline recorded"
  | Some tl ->
      let cp = Cp.analyse tl in
      Alcotest.(check (float 0.0)) "end time = Stats.time" stats.Api.Stats.time
        cp.Cp.end_time;
      Alcotest.(check (float 0.0)) "timeline total agrees" tl.Cp.total cp.Cp.end_time;
      Alcotest.(check int) "a node per step + overhead" (List.length tl.Cp.steps + 1)
        (List.length cp.Cp.nodes);
      Alcotest.(check int) "slack for every proc" tl.Cp.nprocs
        (List.length cp.Cp.slack);
      (* Path time decomposes into its attributed parts. *)
      let parts =
        cp.Cp.compute_time +. cp.Cp.comm_time +. cp.Cp.overhead +. cp.Cp.reduction
      in
      Alcotest.(check (float 1e-12)) "attribution covers the path" cp.Cp.end_time parts

let test_critical_path_fig9 () =
  let n = 24 in
  let m2 = Machine.grid [| 2; 2 |] in
  let m3 = Machine.grid [| 2; 2; 2 |] in
  List.iter
    (fun alg ->
      let a = Result.get_ok alg in
      let run, stats = analysed_run a.M.plan in
      let tl = Option.get run.Profile.timeline in
      Alcotest.(check (float 0.0))
        (a.M.name ^ ": critical path = simulator")
        stats.Api.Stats.time
        (Cp.analyse tl).Cp.end_time)
    [
      M.cannon ~n ~machine:m2;
      M.pumma ~n ~machine:m2;
      M.summa ~n ~machine:m2 ();
      M.johnson ~n ~machine:m3 ();
      M.solomonik ~n ~machine:m3;
      M.cosma ~n ~machine:m3;
    ]

(* {2 Redistribution} *)

let test_redistribute_profiled () =
  let machine = Machine.grid [| 2; 2 |] in
  let p = Profile.create () in
  let stats =
    Api.redistribute ~machine ~profile:p ~shape:[| 8; 8 |]
      ~src:(Distal_ir.Distnot.parse_exn "[x,y] -> [x,y]")
      ~dst:(Distal_ir.Distnot.parse_exn "[x,y] -> [y,x]")
      ()
  in
  Alcotest.(check bool) "moved something" true (stats.Api.Stats.messages > 0);
  let run =
    match Profile.runs p with [ r ] -> r | _ -> Alcotest.fail "expected one run"
  in
  let copies =
    List.filter (fun (e : Event.t) -> e.Event.cat = "copy") (Profile.events p)
  in
  Alcotest.(check int) "a copy event per message" stats.Api.Stats.messages
    (List.length copies);
  match run.Profile.timeline with
  | None -> Alcotest.fail "redistribute must record a timeline"
  | Some tl ->
      Alcotest.(check int) "one exchange step" 1 (List.length tl.Cp.steps);
      Alcotest.(check (float 0.0)) "critical path = redistribute time"
        stats.Api.Stats.time
        (Cp.analyse tl).Cp.end_time

(* {2 Reports and bench JSON} *)

let test_report () =
  let run, _ = analysed_run (cannon33 ()) in
  let report = Obs.Report.run_report run in
  Alcotest.(check bool) "step table" true (contains report "bound by");
  Alcotest.(check bool) "critical path summary" true (contains report "critical path");
  Alcotest.(check bool) "metrics snapshot" true (contains report "exec.time");
  match Json.parse (Json.to_string (Obs.Report.run_to_json run)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("run json: " ^ e)

let test_figure_json () =
  let fig =
    {
      Figure.id = "figX";
      title = "test";
      unit_ = "GFLOP/s/node";
      nodes = [ 1; 2 ];
      series =
        [
          {
            Figure.name = "s";
            cells = [ (1, Figure.Value 1.5); (2, Figure.Oom) ];
          };
        ];
    }
  in
  let s = Json.to_string (Figure.to_json fig) in
  Alcotest.(check bool) "bench schema" true (contains s "distal-bench/v1");
  Alcotest.(check bool) "oom marked" true (contains s "\"oom\"");
  match Json.parse s with
  | Ok j -> (
      match Json.member "nodes" j with
      | Some (Json.List l) -> Alcotest.(check int) "node counts" 2 (List.length l)
      | _ -> Alcotest.fail "no nodes array")
  | Error e -> Alcotest.fail e

let test_compile_spans () =
  let machine = Machine.grid [| 2; 2 |] in
  let p = Profile.create () in
  let problem =
    Api.problem_exn ~profile:p ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "C" [| 8; 8 |] ~dist:"[x,y] -> [x,y]";
        ]
      ()
  in
  let _plan = Api.compile_exn ~profile:p problem ~schedule:[] in
  let phases =
    List.filter_map
      (fun (e : Event.t) ->
        if e.Event.cat = "compile" && e.Event.pid = 0 then Some e.Event.name else None)
      (Profile.events p)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true (List.mem name phases))
    [ "parse"; "typecheck"; "cin"; "schedule rewrites"; "lower" ]

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json errors" `Quick test_json_errors;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "histogram observe_n" `Quick test_observe_n;
        Alcotest.test_case "stats of registry" `Quick test_stats_of_registry;
        Alcotest.test_case "trace valid json" `Quick test_trace_valid_json;
        Alcotest.test_case "full/model deterministic" `Quick
          test_full_model_deterministic;
        Alcotest.test_case "critical path cannon 3x3" `Quick test_critical_path_cannon;
        Alcotest.test_case "critical path fig9" `Quick test_critical_path_fig9;
        Alcotest.test_case "redistribute profiled" `Quick test_redistribute_profiled;
        Alcotest.test_case "run report" `Quick test_report;
        Alcotest.test_case "figure json" `Quick test_figure_json;
        Alcotest.test_case "compile spans" `Quick test_compile_spans;
      ] );
  ]
