(* Schema validator for the harness's machine-readable outputs, run from
   the test suite against freshly generated files. Understands two
   document kinds and picks by shape:

   - distal-bench/v1: headline rows, figure series or metric lists
     (Figure.to_json, Headline.to_json, the simperf section);
   - Chrome trace_event files (Chrome_trace).

   Exits nonzero with a diagnostic on the first violation.

   With [--baseline FILE] (plus optional [--tolerance X], default 2.0),
   every [*.wall_s] metric in the baseline document is also compared
   against the same metric in the validated files: the run fails with a
   per-metric diff if any wall-clock metric exceeds baseline * tolerance —
   the regression guard for the simulator's own performance. The
   [DISTAL_BENCH_TOLERANCE] environment variable overrides the flag, so a
   noisy CI host can relax the gate without editing build files. Metrics
   other than [*.wall_s] are informational and never gate — except
   [*.hot_cache_speedup], which must reach at least 5.0
   (a hot serving-cache request that is not clearly cheaper than a cold
   compile-and-run means the serving layer has stopped paying for
   itself), [*.native_speedup], which must be at least 1.0 (the tiled
   leaf microkernels may never lose to the staged scalar nest they
   replace), and the auto-scheduler invariants: [*.candidates_pruned]
   must be positive (the dedup/bound machinery must reject something on
   any non-trivial search), [*.pool_identical] must be exactly 1 (the
   chosen ranking may not depend on the domain-pool size) and
   [*.vs_hand_min_ratio] must be at least 1.0 (the search may never lose
   to a hand schedule inside its own space). *)

module Json = Distal_support.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("validate_bench: " ^ s); exit 1) fmt

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let expect_string ~file ~what = function
  | Some (Json.String s) -> s
  | _ -> fail "%s: %s must be a string" file what

let expect_list ~file ~what = function
  | Some (Json.List l) -> l
  | _ -> fail "%s: %s must be an array" file what

let check_measured ~file = function
  | Some (Json.Float _ | Json.Int _ | Json.Null) -> ()
  | _ -> fail "%s: measured must be a number or null" file

let check_headline ~file j =
  let rows = expect_list ~file ~what:"rows" (Json.member "rows" j) in
  if rows = [] then fail "%s: no headline rows" file;
  List.iter
    (fun row ->
      ignore (expect_string ~file ~what:"comparison" (Json.member "comparison" row));
      ignore (expect_string ~file ~what:"paper" (Json.member "paper" row));
      check_measured ~file (Json.member "measured" row))
    rows;
  Printf.printf "%s: ok (headline, %d rows)\n" file (List.length rows)

let check_figure ~file j =
  let series = expect_list ~file ~what:"series" (Json.member "series" j) in
  let nodes = expect_list ~file ~what:"nodes" (Json.member "nodes" j) in
  if series = [] then fail "%s: no series" file;
  List.iter
    (fun s ->
      ignore (expect_string ~file ~what:"series name" (Json.member "name" s));
      let cells = expect_list ~file ~what:"cells" (Json.member "cells" s) in
      if List.length cells <> List.length nodes then
        fail "%s: series has %d cells for %d node counts" file (List.length cells)
          (List.length nodes);
      List.iter
        (fun c ->
          (match Json.member "nodes" c with
          | Some (Json.Int _) -> ()
          | _ -> fail "%s: cell nodes must be an integer" file);
          match Json.member "value" c with
          | Some (Json.Float _ | Json.Int _ | Json.Null | Json.String "oom") -> ()
          | _ -> fail "%s: cell value must be a number, null or \"oom\"" file)
        cells)
    series;
  Printf.printf "%s: ok (figure, %d series)\n" file (List.length series)

(* Metric values of every validated metrics document, for the optional
   baseline comparison. *)
let seen_metrics : (string * float) list ref = ref []

let check_metrics ~file j =
  let metrics = expect_list ~file ~what:"metrics" (Json.member "metrics" j) in
  if metrics = [] then fail "%s: no metrics" file;
  List.iter
    (fun m ->
      let name = expect_string ~file ~what:"metric name" (Json.member "name" m) in
      ignore (expect_string ~file ~what:"metric unit" (Json.member "unit" m));
      match Json.member "value" m with
      | Some (Json.Float v) -> seen_metrics := (name, v) :: !seen_metrics
      | Some (Json.Int v) -> seen_metrics := (name, float_of_int v) :: !seen_metrics
      | Some Json.Null -> ()
      | _ -> fail "%s: metric value must be a number or null" file)
    metrics;
  Printf.printf "%s: ok (metrics, %d entries)\n" file (List.length metrics)

let check_bench ~file j =
  (match Json.member "schema" j with
  | Some (Json.String "distal-bench/v1") -> ()
  | _ -> fail "%s: schema must be \"distal-bench/v1\"" file);
  if Json.member "rows" j <> None then check_headline ~file j
  else if Json.member "metrics" j <> None then check_metrics ~file j
  else check_figure ~file j

let check_trace ~file j events =
  if events = [] then fail "%s: empty traceEvents" file;
  List.iter
    (fun e ->
      ignore (expect_string ~file ~what:"event name" (Json.member "name" e));
      (match expect_string ~file ~what:"ph" (Json.member "ph" e) with
      | "X" | "i" | "C" | "M" -> ()
      | ph -> fail "%s: unexpected phase %S" file ph);
      match (Json.member "pid" e, Json.member "tid" e) with
      | Some (Json.Int _), Some (Json.Int _) -> ()
      | _ -> fail "%s: pid/tid must be integers" file)
    events;
  ignore j;
  Printf.printf "%s: ok (trace, %d events)\n" file (List.length events)

(* A fault-free run with checkpointing off must be indistinguishable
   from the plain executor: a nonzero [*.nocheckpoint_overhead] means the
   fault machinery leaked simulated time into runs that opted out. *)
let check_speedups () =
  List.iter
    (fun (name, v) ->
      if String.ends_with ~suffix:".nocheckpoint_overhead" name && v <> 0.0 then
        fail "%s is %g s: fault-free run without checkpointing must cost exactly 0"
          name v;
      if String.ends_with ~suffix:".hot_cache_speedup" name && v < 5.0 then
        fail "%s is %.1fx: hot serving-cache requests must be at least 5x cold" name v;
      if String.ends_with ~suffix:".candidates_pruned" name && v <= 0.0 then
        fail
          "%s is %g: the auto-scheduler's canonicalization/stat bounds pruned nothing"
          name v;
      if String.ends_with ~suffix:".pool_identical" name && v <> 1.0 then
        fail
          "%s is %g: auto-scheduler search must be byte-identical at every pool size"
          name v;
      if String.ends_with ~suffix:".vs_hand_min_ratio" name && v < 1.0 then
        fail
          "%s is %.3fx: the auto-scheduler lost to a hand schedule it should match or \
           beat"
          name v;
      if String.ends_with ~suffix:".native_speedup" name && v < 1.0 then
        fail
          "%s is %.3fx: the tiled leaf kernels lost to the staged scalar nest they \
           replace"
          name v;
      if String.ends_with ~suffix:".plan_reuse_speedup" name && v < 1.0 then
        fail
          "%s is %.3fx: replaying a compiled executable plan lost to replanning every \
           run"
          name v)
    !seen_metrics

let check file =
  match Json.parse (read_file file) with
  | Error e -> fail "%s: invalid JSON: %s" file e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List events) -> check_trace ~file j events
      | Some _ -> fail "%s: traceEvents must be an array" file
      | None -> check_bench ~file j)

(* Compare every [*.wall_s] metric the baseline records against the
   freshly validated files; fail with a readable diff when any regresses
   beyond the tolerance factor. A wall metric present in the baseline but
   absent from the fresh output also fails — renaming a benchmark must
   update the baseline. *)
let check_baseline ~baseline ~tolerance =
  let j =
    match Json.parse (read_file baseline) with
    | Error e -> fail "%s: invalid JSON: %s" baseline e
    | Ok j -> j
  in
  let metrics = expect_list ~file:baseline ~what:"metrics" (Json.member "metrics" j) in
  let is_wall name =
    String.length name > 7 && String.sub name (String.length name - 7) 7 = ".wall_s"
  in
  let compared = ref 0 and diffs = ref [] in
  List.iter
    (fun m ->
      let name = expect_string ~file:baseline ~what:"metric name" (Json.member "name" m) in
      let base =
        match Json.member "value" m with
        | Some (Json.Float v) -> Some v
        | Some (Json.Int v) -> Some (float_of_int v)
        | _ -> None
      in
      match base with
      | Some base when is_wall name -> (
          incr compared;
          match List.assoc_opt name !seen_metrics with
          | None ->
              diffs := Printf.sprintf "  %-28s missing from fresh output" name :: !diffs
          | Some v ->
              if v > base *. tolerance then
                diffs :=
                  Printf.sprintf "  %-28s %8.3f ms -> %8.3f ms  (%.1fx, limit %.1fx)"
                    name (base *. 1e3) (v *. 1e3) (v /. base) tolerance
                  :: !diffs)
      | _ -> ())
    metrics;
  if !diffs <> [] then begin
    Printf.eprintf "validate_bench: wall-clock regression vs %s (tolerance %.1fx):\n%s\n"
      baseline tolerance
      (String.concat "\n" (List.rev !diffs));
    exit 1
  end;
  Printf.printf "%s: ok (baseline, %d wall metrics within %.1fx)\n" baseline !compared
    tolerance

let () =
  let rec parse baseline tolerance files = function
    | [] -> (baseline, tolerance, List.rev files)
    | "--baseline" :: file :: rest -> parse (Some file) tolerance files rest
    | "--tolerance" :: x :: rest -> (
        match float_of_string_opt x with
        | Some t when t > 0.0 -> parse baseline t files rest
        | _ -> fail "--tolerance wants a positive number, got %S" x)
    | f :: rest -> parse baseline tolerance (f :: files) rest
  in
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as args) ->
      let baseline, tolerance, files = parse None 2.0 [] args in
      let tolerance =
        match Distal_support.Env.float_var "DISTAL_BENCH_TOLERANCE" with
        | Some t when t > 0.0 -> t
        | Some t -> fail "DISTAL_BENCH_TOLERANCE must be positive, got %g" t
        | None -> tolerance
      in
      if files = [] then fail "no files to validate";
      List.iter check files;
      check_speedups ();
      Option.iter (fun b -> check_baseline ~baseline:b ~tolerance) baseline
  | _ ->
      prerr_endline
        "usage: validate_bench [--baseline FILE] [--tolerance X] FILE.json ...";
      exit 1
