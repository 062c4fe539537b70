(* The served-request ledger: this repository's benchmark.

     ledger.exe --workload W --seed N --seconds S --trace 0|1
     ledger.exe --runs N [--workload W] [--seed N] [--seconds S]
     ledger.exe --compare A.json B.json
     ledger.exe --smoke

   Untraced (--trace 0): spawn distald, time seven cold starts (spawn,
   connect, warm-up), drive the workload for S seconds from min(2, nproc)
   closed-loop clients, then check sampled replies against the serial
   reference. Traced (--trace 1): the same served window for the daemon's
   counters and served p50, then the in-process ledger (Traced). Either
   way the last line of standard output is one JSON object with the
   metrics BENCHMARK.json declares, and BENCH_ledger.json (distal-bench/v1)
   plus, when traced, the Chrome trace BENCH_ledger_trace.json land in
   the output directory. Run it from the repository root; run.sh builds
   everything first. *)

module Json = Distal_support.Json
module W = Workloads
open Measure

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

type config = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : bool;
  requests : int;  (** traced stream length *)
  setups : int;  (** cold starts timed per untraced run *)
  distald : string;
  out : string;
}

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* {2 One run} *)

(* A served window and what surrounds it: set-up, the daemon's stats
   before and after, its peak RSS and the oracle's verdict. *)
type served = {
  setup : float;
  clients : int;
  win : Served.window;
  before : Json.t;
  after : Json.t;
  rss : float;
  verdict : Served.verdict;
}

type run = {
  metrics : metric list;
  attempted : int;
  failed : int;
  verdict : Served.verdict;
  clients : int;
}

let nproc () = Domain.recommended_domain_count ()

let served_window cfg (w : W.t) ~setups =
  (* Every cold start but the last only times set-up; the last daemon
     serves the window. *)
  let rec cold_starts k times =
    let d, c, s = Served.cold_start ~distald:cfg.distald ~root:cfg.out w in
    if k <= 1 then (d, c, s :: times)
    else begin
      Served.stop d c;
      cold_starts (k - 1) (s :: times)
    end
  in
  let d, c, times = cold_starts setups [] in
  let setup = median times in
  let clients = min 2 (nproc ()) in
  let before = Served.stats c in
  let win = Served.run_window ~clients ~seconds:cfg.seconds d w in
  let after = Served.stats c in
  let rss = Served.peak_rss_mb d in
  Served.stop d c;
  List.iter (fun e -> Printf.eprintf "ledger: request failed: %s\n%!" e) win.Served.errors;
  { setup; clients; win; before; after; rss; verdict = Served.check_samples win.Served.samples }

let untraced cfg name =
  let w = W.make name cfg.seed in
  let sv = served_window cfg w ~setups:cfg.setups in
  let win = sv.win in
  let lat = win.Served.latencies in
  {
    metrics =
      [
        m "throughput_rps" (float_of_int (List.length lat) /. win.Served.elapsed) "1/s";
        m "latency_p50_ms" (quantile 0.5 lat *. 1e3) "ms";
        m "latency_p90_ms" (quantile 0.9 lat *. 1e3) "ms";
        m "setup_s" sv.setup "s";
        m "server_peak_rss_mb" sv.rss "MiB";
      ];
    attempted = win.Served.attempted;
    failed = win.Served.failed;
    verdict = sv.verdict;
    clients = sv.clients;
  }

let traced cfg name =
  let w = W.make name cfg.seed in
  let sv = served_window cfg w ~setups:1 in
  let win = sv.win in
  let delta key field = Served.stat sv.after key field -. Served.stat sv.before key field in
  let rate hits misses =
    let h = delta hits "value" and mi = delta misses "value" in
    if h +. mi > 0.0 then h /. (h +. mi) else 0.0
  in
  let tr = Traced.run ~workload:name ~seed:cfg.seed ~requests:cfg.requests in
  let t = tr.Traced.ledger in
  let med key scale = median (Traced.values t key) *. scale in
  let total = sum t.Traced.roots in
  let share key = sum (Traced.calls t key) /. total in
  let leaf_measured, leaf_predicted = Traced.leaf () in
  let served_p50 = median win.Served.latencies in
  let allocs = Traced.values t "exec.pool_allocs" in
  let trace_file = Filename.concat cfg.out "BENCH_ledger_trace.json" in
  let oc = open_out trace_file in
  output_string oc (Distal_obs.Chrome_trace.to_string (Distal_obs.Event.events t.Traced.sink));
  output_char oc '\n';
  close_out oc;
  {
    metrics =
      [
        m "protocol.decode_submit_us" (med "protocol.decode_submit" 1e6) "us";
        m "protocol.encode_reply_ms" (med "protocol.encode_reply" 1e3) "ms";
        m "protocol.decode_reply_ms" (med "protocol.decode_reply" 1e3) "ms";
        m "protocol.reply_kb" (med "protocol.reply_bytes" 1e-3) "kB";
        m "api.fingerprint_us" (med "api.fingerprint" 1e6) "us";
        m "api.random_inputs_ms" (med "api.random_inputs" 1e3) "ms";
        m "ir.parse_us" (med "ir.parse" 1e6) "us";
        m "ir.typecheck_us" (med "ir.typecheck" 1e6) "us";
        m "ir.cin_us" (med "ir.cin" 1e6) "us";
        m "ir.rewrite_us" (med "ir.rewrite" 1e6) "us";
        m "ir.lower_us" (med "ir.lower" 1e6) "us";
        m "ir.taskir_bytes" (med "ir.taskir_bytes" 1.0) "bytes";
        m "session.compile_hit_us" (med "session.compile_hit" 1e6) "us";
        m "session.compile_miss_ms" (med "session.compile_miss" 1e3) "ms";
        m "session.copy_ms" (med "session.copy" 1e3) "ms";
        m "session.run_ms" (med "session.run" 1e3) "ms";
        m "session.plan_hit_rate" (rate "serve.plan_hits" "serve.plan_misses") "ratio";
        m "session.result_hit_rate" (rate "serve.result_hits" "serve.result_misses") "ratio";
        m "exec.plan_ms" (med "exec.plan" 1e3) "ms";
        m "exec.simulate_ms" (med "exec.simulate" 1e3) "ms";
        m "exec.tasks" (med "exec.tasks" 1.0) "count";
        m "exec.messages" (med "exec.messages" 1.0) "count";
        m "exec.replay_ms" (med "exec.replay" 1e3) "ms";
        m "exec.replay_alloc_mwords" (med "exec.replay_alloc_words" 1e-6) "Mwords";
        m "exec.pool_allocs_per_run" (sum allocs /. float_of_int (List.length allocs)) "count";
        m "exec.parallel_efficiency" tr.Traced.parallel_efficiency "ratio";
        m "leaf.measured_ms" (leaf_measured *. 1e3) "ms";
        m "leaf.predicted_ms" (leaf_predicted *. 1e3) "ms";
        m "leaf.predict_ratio" (leaf_predicted /. leaf_measured) "ratio";
        m "server.residual_ms" ((served_p50 -. median tr.Traced.untraced_roots) *. 1e3) "ms";
        m "server.batch_size_mean"
          (delta "serve.batch_size" "sum" /. delta "serve.batch_size" "count")
          "requests";
        m "ledger.coverage" (sum (List.map share Traced.partition)) "ratio";
        m "ledger.trace_overhead"
          ((median t.Traced.roots /. median tr.Traced.untraced_roots) -. 1.0)
          "ratio";
      ]
      @ List.map (fun l -> m (l ^ "_share") (share l) "ratio") Traced.partition;
    attempted = win.Served.attempted;
    failed = win.Served.failed;
    verdict = sv.verdict;
    clients = sv.clients;
  }

(* {2 Output} *)

let write_json file j =
  let oc = open_out file in
  output_string oc (Json.to_string_pretty j);
  output_char oc '\n';
  close_out oc

let metric_json x =
  Json.Obj
    [ ("name", Json.String x.name); ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]

let frac n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

(* BENCH_ledger.json records everything needed to compare two runs: the
   host's core count, the client count, seed and window. *)
let ledger_json cfg name r =
  Json.Obj
    [
      ("schema", Json.String "distal-bench/v1");
      ("id", Json.String "ledger");
      ("workload", Json.String name);
      ("trace", Json.Bool cfg.trace);
      ("seed", Json.Int cfg.seed);
      ("window_s", Json.Float cfg.seconds);
      ("nproc", Json.Int (nproc ()));
      ("clients", Json.Int r.clients);
      ("traced_requests", Json.Int cfg.requests);
      ("attempted", Json.Int r.attempted);
      ("failed_frac", Json.Float (frac r.failed r.attempted));
      ("wrong_frac", Json.Float (frac r.verdict.Served.wrong r.verdict.Served.checked));
      ("checked", Json.Int r.verdict.Served.checked);
      ("outputs_checked", Json.Int r.verdict.Served.outputs_checked);
      ("metrics", Json.List (List.map metric_json r.metrics));
    ]

let print_table name r =
  Printf.printf "%-8s %-32s %16s  %s\n" "workload" "metric" "value" "unit";
  let row metric value unit_ = Printf.printf "%-8s %-32s %16.6g  %s\n" name metric value unit_ in
  List.iter (fun x -> row x.name x.value x.unit_) r.metrics;
  row "requests" (float_of_int r.attempted) "count";
  row "failed_frac" (frac r.failed r.attempted) "ratio";
  row "wrong_frac" (frac r.verdict.Served.wrong r.verdict.Served.checked) "ratio";
  flush stdout

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.verdict.Served.wrong = 0 && r.verdict.Served.checked > 0));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
                r.metrics) );
       ])

let run_one cfg name =
  let r = if cfg.trace then traced cfg name else untraced cfg name in
  List.iter
    (fun x -> if not (Float.is_finite x.value) then fail "%s: metric %s is not finite" name x.name)
    r.metrics;
  write_json (Filename.concat cfg.out "BENCH_ledger.json") (ledger_json cfg name r);
  r

(* {2 BENCHMARK.json} *)

type spec = { s_name : string; s_unit : string; lower_better : bool; bound : float option }

let read_file file = In_channel.with_open_bin file In_channel.input_all

let benchmark_spec section =
  let j =
    match Json.parse (read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
    | exception Sys_error e -> fail "%s" e
  in
  match Json.member section j with
  | Some (Json.List l) ->
      List.map
        (fun x ->
          let str k =
            match Json.member k x with
            | Some (Json.String s) -> s
            | _ -> fail "BENCHMARK.json: %s.%s" section k
          in
          {
            s_name = str "name";
            s_unit = str "unit";
            lower_better = str "better" = "lower";
            bound = Option.bind (Json.member "bound" x) Json.to_float;
          })
        l
  | _ -> fail "BENCHMARK.json has no %s list" section

(* Every metric a run wrote must be declared, with the same unit, and
   every declared metric must have been written. *)
let check_against_spec ~file ~section =
  let spec = benchmark_spec section in
  let written =
    match Result.map (Json.member "metrics") (Json.parse (read_file file)) with
    | Ok (Some (Json.List l)) ->
        List.map
          (fun x ->
            match (Json.member "name" x, Json.member "unit" x) with
            | Some (Json.String n), Some (Json.String u) -> (n, u)
            | _ -> fail "%s: malformed metric" file)
          l
    | _ -> fail "%s: no metrics" file
  in
  let problems =
    List.filter_map
      (fun (n, u) ->
        match List.find_opt (fun s -> s.s_name = n) spec with
        | None -> Some (Printf.sprintf "%s is not declared in %s" n section)
        | Some s when s.s_unit <> u ->
            Some (Printf.sprintf "%s has unit %s, declared %s" n u s.s_unit)
        | Some _ -> None)
      written
    @ List.filter_map
        (fun s ->
          if List.mem_assoc s.s_name written then None
          else Some (Printf.sprintf "%s (%s) was not reported" s.s_name section))
        spec
  in
  List.iter (fun p -> prerr_endline ("ledger: smoke: " ^ p)) problems;
  problems = []

(* {2 Repeated runs and comparison} *)

let runs cfg n =
  let rows =
    List.concat_map
      (fun name ->
        let per_run =
          List.init n (fun i ->
              let r = run_one { cfg with seed = cfg.seed + i } name in
              Printf.printf "%s run %d/%d: %s\n%!" name (i + 1) n
                (String.concat " "
                   (List.map (fun x -> Printf.sprintf "%s=%.6g" x.name x.value) r.metrics));
              r)
        in
        List.map
          (fun (x : metric) ->
            let vs =
              List.map (fun r -> (List.find (fun y -> y.name = x.name) r.metrics).value) per_run
            in
            let q1, q3 = quartiles vs in
            (name, x, vs, q1, q3))
          (List.hd per_run).metrics)
      cfg.workloads
  in
  Printf.printf "%-8s %-22s %14s %14s %14s %9s  %s\n" "workload" "metric" "q1" "median" "q3"
    "spread" "unit";
  List.iter
    (fun (name, x, vs, q1, q3) ->
      let med = median vs in
      Printf.printf "%-8s %-22s %14.6g %14.6g %14.6g %8.2f%%  %s\n" name x.name q1 med q3
        ((q3 -. q1) /. med *. 100.0) x.unit_)
    rows;
  let file = Filename.concat cfg.out "BENCH_ledger_runs.json" in
  write_json file
    (Json.Obj
       [
         ("schema", Json.String "distal-bench/v1");
         ("id", Json.String "ledger-runs");
         ("runs", Json.Int n);
         ("seed", Json.Int cfg.seed);
         ("window_s", Json.Float cfg.seconds);
         ("nproc", Json.Int (nproc ()));
         ( "metrics",
           Json.List
             (List.map
                (fun (name, x, vs, q1, q3) ->
                  Json.Obj
                    [
                      ("name", Json.String (name ^ "." ^ x.name));
                      ("workload", Json.String name);
                      ("metric", Json.String x.name);
                      ("value", Json.Float (median vs));
                      ("unit", Json.String x.unit_);
                      ("q1", Json.Float q1);
                      ("q3", Json.Float q3);
                      ("values", Json.List (List.map (fun v -> Json.Float v) vs));
                    ])
                rows) );
       ]);
  Printf.printf "wrote %s\n" file

let load_runs file =
  match Result.map (Json.member "metrics") (Json.parse (read_file file)) with
  | Ok (Some (Json.List l)) ->
      List.map
        (fun x ->
          let s k =
            match Json.member k x with Some (Json.String v) -> v | _ -> fail "%s: %s" file k
          in
          let f k =
            match Option.bind (Json.member k x) Json.to_float with
            | Some v -> v
            | None -> fail "%s: %s" file k
          in
          ((s "workload", s "metric"), (f "value", f "q1", f "q3")))
        l
  | _ | (exception Sys_error _) -> fail "%s: not a BENCH_ledger_runs.json" file

(* A row is unresolved when either side's quartile spread exceeds the
   metric's bound, worse when B's median is worse than A's by more than
   the bound, better when it is better by more than A's own spread. *)
let compare_runs a_file b_file =
  let spec = benchmark_spec "end_to_end" in
  let a = load_runs a_file and b = load_runs b_file in
  let worse = ref 0 in
  Printf.printf "%-8s %-22s %12s %12s %9s %9s %7s  %s\n" "workload" "metric" "A" "B" "change"
    "spread" "bound" "verdict";
  List.iter
    (fun ((wl, name), (ma, q1a, q3a)) ->
      match (List.assoc_opt (wl, name) b, List.find_opt (fun s -> s.s_name = name) spec) with
      | Some (mb, q1b, q3b), Some { bound = Some bound; lower_better; _ } ->
          let spread_a = (q3a -. q1a) /. ma and spread_b = (q3b -. q1b) /. mb in
          let worse_by = (if lower_better then mb -. ma else ma -. mb) /. ma in
          let verdict =
            if Float.max spread_a spread_b > bound then "unresolved"
            else if worse_by > bound then (incr worse; "worse")
            else if -.worse_by > spread_a then "better"
            else "same"
          in
          Printf.printf "%-8s %-22s %12.6g %12.6g %8.2f%% %8.2f%% %6.0f%%  %s\n" wl name ma mb
            (100.0 *. (mb -. ma) /. ma)
            (100.0 *. Float.max spread_a spread_b)
            (100.0 *. bound) verdict
      | _ -> ())
    a;
  if !worse > 0 then exit 1

(* {2 Smoke} *)

(* Every workload for about a second untraced and 20 requests traced;
   the metric names and units must match BENCHMARK.json and the layers
   must account for the in-process end to end. *)
let smoke cfg =
  let ok = ref true in
  let file = Filename.concat cfg.out "BENCH_ledger.json" in
  List.iter
    (fun name ->
      let cfg = { cfg with seconds = 1.0; setups = 1; requests = 20 } in
      let u = run_one { cfg with trace = false } name in
      print_table name u;
      ok := check_against_spec ~file ~section:"end_to_end" && !ok;
      let t = run_one { cfg with trace = true } name in
      print_table name t;
      ok := check_against_spec ~file ~section:"per_layer" && !ok;
      let coverage = (List.find (fun x -> x.name = "ledger.coverage") t.metrics).value in
      if coverage < 0.9 || coverage > 1.1 then begin
        Printf.eprintf "ledger: smoke: %s coverage %.3f outside [0.9, 1.1]\n" name coverage;
        ok := false
      end;
      if u.verdict.Served.wrong + t.verdict.Served.wrong + u.failed + t.failed > 0 then begin
        Printf.eprintf "ledger: smoke: %s had failed or wrong replies\n" name;
        ok := false
      end)
    cfg.workloads;
  if not !ok then exit 1;
  print_endline "ledger: smoke ok"

(* {2 Command line} *)

let usage =
  "usage: ledger.exe --workload W --seed N --seconds S --trace 0|1\n\
  \       ledger.exe --runs N [--workload W] [--seed N] [--seconds S]\n\
  \       ledger.exe --compare A.json B.json\n\
  \       ledger.exe --smoke"

let () =
  (* The in-process half must see the daemon's configuration: defaults
     everywhere, whatever DISTAL_* the caller exported (Env reads a blank
     variable as unset). *)
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"DISTAL_" kv then
        match String.index_opt kv '=' with
        | Some i -> Unix.putenv (String.sub kv 0 i) ""
        | None -> ())
    (Unix.environment ());
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "%s wants an integer, got %S\n%s" flag v usage
  in
  let cfg =
    ref
      {
        workloads = W.names;
        seed = 1;
        seconds = 20.0;
        trace = false;
        requests = 300;
        setups = 7;
        distald = "_build/default/bin/distald.exe";
        out = ".ledger";
      }
  in
  let mode = ref `Run in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem w W.names) then
          fail "unknown workload %S (one of %s)" w (String.concat ", " W.names);
        cfg := { !cfg with workloads = [ w ] };
        parse rest
    | "--seed" :: v :: rest ->
        cfg := { !cfg with seed = int_arg "--seed" v };
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> cfg := { !cfg with seconds = s }
        | _ -> fail "--seconds wants a positive number, got %S" v);
        parse rest
    | "--trace" :: v :: rest ->
        cfg := { !cfg with trace = int_arg "--trace" v <> 0 };
        parse rest
    | "--runs" :: v :: rest ->
        mode := `Runs (max 1 (int_arg "--runs" v));
        parse rest
    | "--compare" :: a :: b :: rest ->
        mode := `Compare (a, b);
        parse rest
    | "--smoke" :: rest ->
        mode := `Smoke;
        parse rest
    | arg :: _ -> fail "unexpected argument %S\n%s" arg usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cfg = !cfg in
  let prepare () =
    if not (Sys.file_exists cfg.distald) then
      fail "%s not found: build it first (dune build ./bin/distald.exe)" cfg.distald;
    if not (Sys.file_exists cfg.out) then Unix.mkdir cfg.out 0o755
  in
  match !mode with
  | `Compare (a, b) -> compare_runs a b
  | `Smoke ->
      prepare ();
      smoke cfg
  | `Runs n ->
      prepare ();
      runs cfg n
  | `Run -> (
      prepare ();
      match cfg.workloads with
      | [ name ] ->
          let r = run_one cfg name in
          print_table name r;
          print_endline (result_line r);
          if r.verdict.Served.wrong > 0 then exit 1
      | _ -> fail "name one --workload (or use --runs / --smoke)\n%s" usage)
