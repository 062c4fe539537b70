(* The compile-and-serve subsystem (lib/serve): the LRU substrate, the
   request fingerprint, the caching session's byte-identity contract
   (served results — cached or not, concurrent or not — are exactly what
   a direct Api run produces), the wire framing and protocol codecs, and
   the distald server end to end over a real Unix-domain socket: cache
   reuse, admission control, clients killed mid-request, a server killed
   mid-batch and restarted (checkpoint-free recovery), and fault-plan
   requests served with recovery-exact outputs. *)

module Api = Distal.Api
module Machine = Api.Machine
module Dense = Api.Dense
module Exec = Api.Exec
module Stats = Api.Stats
module Pool = Distal_support.Pool
module Lru = Distal_support.Lru
module Wire = Distal_support.Wire
module Json = Distal_support.Json
module Session = Distal_serve.Session
module Protocol = Distal_serve.Protocol
module Client = Distal_serve.Client

(* {2 LRU} *)

let test_lru_eviction_order () =
  let t = Lru.create ~capacity:2 in
  Alcotest.(check (list (pair string int))) "no eviction" [] (Lru.put t "a" 1);
  Alcotest.(check (list (pair string int))) "no eviction" [] (Lru.put t "b" 2);
  (* Touching [a] promotes it, so the next overflow evicts [b]. *)
  Alcotest.(check (option int)) "a hits" (Some 1) (Lru.find t "a");
  Alcotest.(check (list (pair string int)))
    "LRU binding evicted" [ ("b", 2) ] (Lru.put t "c" 3);
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ] (Lru.keys_mru t);
  Alcotest.(check (option int)) "b is gone" None (Lru.find t "b");
  (* Overwrite keeps the key and promotes. *)
  Alcotest.(check (list (pair string int))) "overwrite" [] (Lru.put t "a" 10);
  Alcotest.(check (list string)) "overwrite promotes" [ "a"; "c" ] (Lru.keys_mru t);
  Alcotest.(check int) "hits" 1 (Lru.hits t);
  Alcotest.(check int) "misses" 1 (Lru.misses t);
  Alcotest.(check int) "evictions" 1 (Lru.evictions t)

let test_lru_capacity_zero () =
  let t = Lru.create ~capacity:0 in
  Alcotest.(check (list (pair string int))) "put drops" [] (Lru.put t "a" 1);
  Alcotest.(check (option int)) "always miss" None (Lru.find t "a");
  Alcotest.(check int) "empty" 0 (Lru.length t);
  (match Lru.find_or_add t "a" (fun () -> Ok 7) with
  | Ok (7, `Miss []) -> ()
  | _ -> Alcotest.fail "capacity-0 find_or_add must compute and evict nothing");
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: capacity must be >= 0") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

let test_lru_find_or_add () =
  let t = Lru.create ~capacity:1 in
  let computes = ref 0 in
  let compute v () = incr computes; Ok v in
  (match Lru.find_or_add t "a" (compute 1) with
  | Ok (1, `Miss []) -> ()
  | _ -> Alcotest.fail "first lookup computes");
  (match Lru.find_or_add t "a" (compute 99) with
  | Ok (1, `Hit) -> ()
  | _ -> Alcotest.fail "second lookup hits the cached value");
  Alcotest.(check int) "computed once" 1 !computes;
  (match Lru.find_or_add t "b" (compute 2) with
  | Ok (2, `Miss [ ("a", 1) ]) -> ()
  | _ -> Alcotest.fail "overflow reports the evicted binding");
  (* Error results are not cached. *)
  (match Lru.find_or_add t "c" (fun () -> Error "boom") with
  | Error "boom" -> ()
  | _ -> Alcotest.fail "compute errors propagate");
  Alcotest.(check bool) "error cached nothing" false (Lru.mem t "c")

(* Regression for the dead MRU fast path in [Lru.promote]: the guard
   compared [t.head] against a freshly allocated [Some n] with [!=],
   which is never physically equal, so every hit on the already-MRU
   entry paid a full unlink/re-push. The fix compares the node itself.
   The observable contract either way: hits on the head entry count and
   leave the recency order untouched, hits elsewhere reorder. *)
let test_lru_promote_mru () =
  let t = Lru.create ~capacity:3 in
  ignore (Lru.put t "a" 1);
  ignore (Lru.put t "b" 2);
  ignore (Lru.put t "c" 3);
  (* Repeated hits on the MRU entry: order stable, every hit counted. *)
  for i = 1 to 5 do
    Alcotest.(check (option int)) "mru hit" (Some 3) (Lru.find t "c");
    Alcotest.(check int) "hit counted" i (Lru.hits t);
    Alcotest.(check (list string)) "order stable" [ "c"; "b"; "a" ] (Lru.keys_mru t)
  done;
  (* A hit below the head still promotes... *)
  Alcotest.(check (option int)) "tail hit" (Some 1) (Lru.find t "a");
  Alcotest.(check (list string)) "tail promoted" [ "a"; "c"; "b" ] (Lru.keys_mru t);
  (* ...and the eviction order reflects the promotions, not insertion. *)
  Alcotest.(check (list (pair string int)))
    "lru evicted" [ ("b", 2) ] (Lru.put t "d" 4);
  (* Single-entry cache: the only entry is permanently MRU; hammering it
     must neither corrupt the list nor lose counter updates. *)
  let s = Lru.create ~capacity:1 in
  ignore (Lru.put s "x" 0);
  for _ = 1 to 100 do ignore (Lru.find s "x") done;
  Alcotest.(check int) "single-entry hits" 100 (Lru.hits s);
  Alcotest.(check (list string)) "single-entry order" [ "x" ] (Lru.keys_mru s)

(* A weighted cache evicts from the LRU end until the total weight fits,
   reports every eviction (least recently used first), and still bounds
   the entry count. An entry heavier than the whole budget is dropped. *)
let test_lru_weighted () =
  let t = Lru.create_weighted ~capacity:10 ~max_weight:10 ~weight:Fun.id in
  let put k v = Lru.put t k v in
  let evicted = Alcotest.(check (list (pair string int))) in
  evicted "a fits" [] (put "a" 4);
  evicted "b fits" [] (put "b" 4);
  evicted "c pushes a out" [ ("a", 4) ] (put "c" 4);
  Alcotest.(check int) "weight after c" 8 (Lru.weight t);
  ignore (Lru.find t "b");
  evicted "d pushes out c, not the promoted b" [ ("c", 4) ] (put "d" 5);
  evicted "e needs two evictions" [ ("b", 4); ("d", 5) ] (put "e" 9);
  Alcotest.(check (list string)) "only e left" [ "e" ] (Lru.keys_mru t);
  evicted "an overweight entry evicts everything, itself too" [ ("e", 9); ("big", 11) ]
    (put "big" 11);
  Alcotest.(check int) "empty weight" 0 (Lru.weight t);
  evicted "x fits" [] (put "x" 3);
  evicted "overwrite reweighs" [] (put "x" 8);
  Alcotest.(check int) "overwritten weight" 8 (Lru.weight t);
  Alcotest.(check bool) "remove" true (Lru.remove t "x");
  Alcotest.(check int) "remove drops the weight" 0 (Lru.weight t);
  Alcotest.(check int) "evictions counted" 6 (Lru.evictions t);
  let c = Lru.create_weighted ~capacity:2 ~max_weight:100 ~weight:Fun.id in
  ignore (Lru.put c "p" 1);
  ignore (Lru.put c "q" 1);
  evicted "the entry count still binds" [ ("p", 1) ] (Lru.put c "r" 1);
  Lru.clear c;
  Alcotest.(check int) "clear drops the weight" 0 (Lru.weight c)

(* {2 QCheck: the LRU against an association-list model}

   The reference is the obvious executable specification: an MRU-first
   association list capped at [capacity], where a find-hit or put moves
   the binding to the front and an overflowing put drops the last
   element. After every operation the cache must agree with the model on
   the returned value, the full recency order and all three counters. *)

type lru_op = Find of int | Put of int * int | Remove of int

let lru_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun k -> Find k) (int_range 0 7));
        (4, map2 (fun k v -> Put (k, v)) (int_range 0 7) (int_range 0 1000));
        (1, map (fun k -> Remove k) (int_range 0 7));
      ])

let lru_op_print = function
  | Find k -> Printf.sprintf "find %d" k
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k

let lru_model_once ~capacity ops =
  let t = Lru.create ~capacity in
  let model = ref [] (* MRU first, length <= capacity *) in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  List.iteri
    (fun step op ->
      let fail fmt =
        QCheck.Test.fail_reportf
          ("step %d (%s): " ^^ fmt) step (lru_op_print op)
      in
      (match op with
      | Find k -> (
          let got = Lru.find t k in
          match List.assoc_opt k !model with
          | Some v ->
              incr hits;
              model := (k, v) :: List.remove_assoc k !model;
              if got <> Some v then fail "expected hit %d" v
          | None ->
              incr misses;
              if got <> None then fail "expected miss")
      | Put (k, v) -> (
          let got = Lru.put t k v in
          let without = List.remove_assoc k !model in
          let expect_evicted =
            if capacity = 0 then []
            else if List.mem_assoc k !model || List.length without < capacity then begin
              model := (k, v) :: without;
              []
            end
            else begin
              let rec split_last = function
                | [ x ] -> ([], x)
                | x :: rest ->
                    let kept, last = split_last rest in
                    (x :: kept, last)
                | [] -> assert false
              in
              let kept, last = split_last without in
              incr evictions;
              model := (k, v) :: kept;
              [ last ]
            end
          in
          if got <> expect_evicted then fail "eviction mismatch")
      | Remove k ->
          let got = Lru.remove t k in
          let expect = List.mem_assoc k !model in
          model := List.remove_assoc k !model;
          if got <> expect then fail "remove returned %b" got);
      if Lru.keys_mru t <> List.map fst !model then fail "recency order diverged";
      if Lru.length t <> List.length !model then fail "length diverged";
      if (Lru.hits t, Lru.misses t, Lru.evictions t) <> (!hits, !misses, !evictions)
      then fail "counters diverged")
    ops;
  true

let qcheck_lru_model =
  QCheck.Test.make ~name:"lru agrees with association-list model" ~count:300
    QCheck.(
      pair (int_range 0 4)
        (list_of_size Gen.(int_range 1 40) (make ~print:lru_op_print lru_op_gen)))
    (fun (capacity, ops) -> lru_model_once ~capacity ops)

(* {2 Requests and fingerprints} *)

let gemm_schedule chunks =
  Printf.sprintf
    "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, %d);\n\
     reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"
    chunks

let gemm_request ?virtual_grid ?(n = 8) ?(chunks = 2) ?(dist = "[x,y] -> [x,y]") () =
  Api.request ?virtual_grid
    ~machine:(Machine.grid [| 2; 2 |])
    ~stmt:"A(i,j) = B(i,k) * C(k,j)"
    ~tensors:
      [
        Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]";
        Api.tensor "B" [| n; n |] ~dist;
        Api.tensor "C" [| n; n |] ~dist;
      ]
    ~schedule:(gemm_schedule chunks) ()

let test_fingerprint () =
  let fp r = Api.request_fingerprint r in
  let base = gemm_request () in
  Alcotest.(check string) "deterministic" (fp base) (fp (gemm_request ()));
  let distinct =
    [
      ("shape", gemm_request ~n:16 ());
      ("schedule", gemm_request ~chunks:4 ());
      ("distribution", gemm_request ~dist:"[x,y] -> [x%1,y%1]" ());
      ("virtual grid", gemm_request ~virtual_grid:[| 4; 4 |] ());
    ]
  in
  List.iter
    (fun (what, r) ->
      if String.equal (fp base) (fp r) then
        Alcotest.failf "fingerprint ignores the %s" what)
    distinct;
  (* Fingerprints also separate requests whose concatenated fields agree:
     the encoding is length-delimited, not a join. *)
  let r1 =
    Api.request
      ~machine:(Machine.grid [| 2 |])
      ~stmt:"a() = b()" ~schedule:"x; y"
      ~tensors:[ Api.tensor "a" [||] ~dist:"[] -> [0]"; Api.tensor "b" [||] ~dist:"[] -> [0]" ]
      ()
  in
  let r2 =
    Api.request
      ~machine:(Machine.grid [| 2 |])
      ~stmt:"a() = b()" ~schedule:"x;"
      ~tensors:[ Api.tensor "a" [||] ~dist:"[] -> [0]"; Api.tensor "b" [||] ~dist:"[] -> [0]" ]
      ()
  in
  if String.equal (fp r1) (fp r2) then Alcotest.fail "schedule text not separated"

(* {2 The session's byte-identity contract} *)

let bits = function
  | None -> []
  | Some out ->
      List.init (Dense.size out) (fun i -> Int64.bits_of_float (Dense.get_lin out i))

let observe_direct ?faults ~seed req =
  let plan = Api.compile_request_exn req in
  let data = Api.random_inputs ~seed plan in
  let r = Api.run_exn ~mode:Exec.Full ~domains:1 ?faults plan ~data in
  (bits r.Exec.output, Stats.to_string r.Exec.stats)

let observe_outcome (o : Session.outcome) =
  (bits o.Session.result.Exec.output, Stats.to_string o.Session.result.Exec.stats)

let test_session_identity () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request () in
  let expected = observe_direct ~seed:7 req in
  let o1 = Session.run_exn ~seed:7 session req in
  Alcotest.(check bool) "first request compiles" false o1.Session.plan_cached;
  Alcotest.(check bool) "first request executes" false o1.Session.result_cached;
  Alcotest.(check (pair (list int64) string)) "cold serve = direct run" expected
    (observe_outcome o1);
  let o2 = Session.run_exn ~seed:7 session req in
  Alcotest.(check bool) "second request hits the plan" true o2.Session.plan_cached;
  Alcotest.(check bool) "second request replays" true o2.Session.result_cached;
  Alcotest.(check (pair (list int64) string)) "hot serve = direct run" expected
    (observe_outcome o2);
  (* A different seed shares the plan but must re-run. *)
  let o3 = Session.run_exn ~seed:8 session req in
  Alcotest.(check bool) "new seed hits the plan" true o3.Session.plan_cached;
  Alcotest.(check bool) "new seed re-executes" false o3.Session.result_cached;
  Alcotest.(check (pair (list int64) string)) "other seed = direct run"
    (observe_direct ~seed:8 req) (observe_outcome o3);
  let c = Session.counters session in
  Alcotest.(check int) "requests" 3 c.Session.requests;
  Alcotest.(check int) "plan hits" 2 c.Session.plan_hits;
  Alcotest.(check int) "plan misses" 1 c.Session.plan_misses;
  Alcotest.(check int) "result hits" 1 c.Session.result_hits;
  Alcotest.(check int) "result misses" 2 c.Session.result_misses

let test_session_defensive_copies () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request () in
  let expected = observe_direct ~seed:3 req in
  let o1 = Session.run_exn ~seed:3 session req in
  (* Corrupt everything the caller can reach; the cache must not see it. *)
  (match o1.Session.result.Exec.output with
  | Some out -> Dense.set_lin out 0 Float.nan
  | None -> Alcotest.fail "expected an output");
  o1.Session.result.Exec.stats.Stats.time <- 1234.5;
  let o2 = Session.run_exn ~seed:3 session req in
  Alcotest.(check bool) "replayed" true o2.Session.result_cached;
  Alcotest.(check (pair (list int64) string)) "cache unharmed by mutation" expected
    (observe_outcome o2)

let test_session_eviction () =
  let session = Session.create ~plan_cache:1 ~domains:1 () in
  let a = gemm_request ~chunks:2 () in
  let b = gemm_request ~chunks:4 () in
  ignore (Session.run_exn ~seed:1 session a);
  ignore (Session.run_exn ~seed:1 session b);
  ignore (Session.run_exn ~seed:1 session a);
  let c = Session.counters session in
  Alcotest.(check int) "single slot always misses" 3 c.Session.plan_misses;
  Alcotest.(check int) "alternation evicts" 2 c.Session.plan_evictions;
  Alcotest.(check int) "one plan cached" 1 (Session.cached_plans session);
  Session.clear session;
  Alcotest.(check int) "clear drops plans" 0 (Session.cached_plans session);
  Alcotest.(check int) "clear drops results" 0 (Session.cached_results session)

(* The result tier keeps only outputs of at most max_cached_result_bytes:
   an 88x88 output (61952 bytes) is cached, a 96x96 one (73728 bytes) is
   served byte-identically on every request but never cached. *)
let test_session_result_size_cap () =
  let session = Session.create ~domains:1 () in
  let fits = gemm_request ~n:88 ~chunks:4 () and big = gemm_request ~n:96 ~chunks:4 () in
  Alcotest.(check bool) "88x88 is under the cap" true
    ((8 * 88 * 88) <= Session.max_cached_result_bytes
    && 8 * 96 * 96 > Session.max_cached_result_bytes);
  ignore (Session.run_exn ~seed:1 session fits);
  Alcotest.(check bool) "small result cached" true
    (Session.run_exn ~seed:1 session fits).Session.result_cached;
  let expected = observe_direct ~seed:2 big in
  List.iter
    (fun _ ->
      let o = Session.run_exn ~seed:2 session big in
      Alcotest.(check bool) "oversized result never cached" false o.Session.result_cached;
      Alcotest.(check (pair (list int64) string)) "oversized result served" expected
        (observe_outcome o))
    [ 1; 2 ];
  Alcotest.(check int) "one cached result" 1 (Session.cached_results session);
  Alcotest.(check (option (float 0.0))) "uncached counter" (Some 2.0)
    (Distal_obs.Metrics.value (Session.metrics session) "serve.result_uncached")

(* The result tier's byte budget: results whose seed never repeats fill
   it to max_result_bytes and no further. Each insert past the budget
   evicts least-recently-used results, the newest result still hits, and
   Model results, which carry no output, weigh nothing. *)
let test_session_result_byte_budget () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request ~n:88 ~chunks:4 () in
  let per = 8 * 88 * 88 in
  let fit = Session.max_result_bytes / per in
  let metric name =
    Option.value ~default:0.0 (Distal_obs.Metrics.value (Session.metrics session) name)
  in
  Alcotest.(check int) "budget is 128 capped results" (128 * Session.max_cached_result_bytes)
    Session.max_result_bytes;
  for seed = 1 to fit + 5 do
    ignore (Session.run_exn ~seed session req)
  done;
  Alcotest.(check int) "as many results as fit" fit (Session.cached_results session);
  Alcotest.(check (float 0.0)) "cached bytes" (float_of_int (fit * per))
    (metric "serve.result_bytes");
  Alcotest.(check bool) "within the budget" true
    (metric "serve.result_bytes" <= float_of_int Session.max_result_bytes);
  Alcotest.(check (float 0.0)) "evictions counted" 5.0 (metric "serve.result_evictions");
  Alcotest.(check int) "evictions in counters" 5
    (Session.counters session).Session.result_evictions;
  Alcotest.(check bool) "newest still hits" true
    (Session.run_exn ~seed:(fit + 5) session req).Session.result_cached;
  ignore (Session.run_exn ~mode:Exec.Model ~seed:1 session req);
  Alcotest.(check bool) "model result cached" true
    (Session.run_exn ~mode:Exec.Model ~seed:1 session req).Session.result_cached;
  Alcotest.(check (float 0.0)) "model results weigh nothing" (float_of_int (fit * per))
    (metric "serve.result_bytes");
  Alcotest.(check (float 0.0)) "and evict nothing" 5.0 (metric "serve.result_evictions")

(* Seeded Full inputs come from the session's buffer pool. Outputs served
   on reused blocks are bit-identical to Api.run on fresh
   Api.random_inputs, and a run that fails after drawing its inputs
   still returns them. A replayed output comes from the same pool and
   goes back on release: after the first run drew it, later runs of the
   shape allocate nothing new. *)
let test_session_pooled_inputs () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request ~n:16 () in
  let metric name =
    match Distal_obs.Metrics.value (Session.metrics session) name with
    | Some v -> v
    | None -> Alcotest.failf "%s missing" name
  in
  let bad = Api.Fault.plan ~kills:[ Api.Fault.kill ~proc:99 ~step:0 () ] () in
  (match Session.run ~faults:bad ~seed:1 session req with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a kill on a missing processor must fail the run");
  Alcotest.(check (float 0.0)) "B and C drawn" 2.0 (metric "serve.input_allocs");
  Alcotest.(check (float 0.0)) "and returned" (float_of_int (2 * 8 * 16 * 16))
    (metric "serve.input_parked_bytes");
  for seed = 2 to 6 do
    let o = Session.run_exn ~seed session req in
    Alcotest.(check (pair (list int64) string))
      (Printf.sprintf "seed %d on reused blocks = direct run" seed)
      (observe_direct ~seed req) (observe_outcome o);
    o.Session.release ()
  done;
  Alcotest.(check (float 0.0)) "no new blocks" 3.0 (metric "serve.input_allocs")

(* A miss's output lives on a pooled block until it is released; the
   result cache keeps its own copy. After a second miss reused that
   block for other data, a hit still returns the first run's bytes. *)
let test_session_pooled_output () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request () in
  let metric name =
    Option.value (Distal_obs.Metrics.value (Session.metrics session) name) ~default:0.0
  in
  let o1 = Session.run_exn ~seed:1 session req in
  let first = observe_outcome o1 in
  o1.Session.release ();
  o1.Session.release ();
  let allocs = metric "serve.input_allocs" in
  let o2 = Session.run_exn ~seed:2 session req in
  Alcotest.(check (float 0.0)) "the second miss reuses the blocks" allocs
    (metric "serve.input_allocs");
  Alcotest.(check bool) "on other data" true (observe_outcome o2 <> first);
  let o3 = Session.run_exn ~seed:1 session req in
  Alcotest.(check bool) "a hit" true o3.Session.result_cached;
  Alcotest.(check (pair (list int64) string)) "returns the first run's bytes" first
    (observe_outcome o3);
  o2.Session.release ()

(* The session stamps each layer a request passes through, always on:
   every request is compiled, a result miss draws seeded Full inputs and
   runs, and a result is copied into the cache on a cacheable miss and
   out of it on a hit. *)
let test_session_stamps () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request () in
  let count name =
    Distal_obs.Metrics.histogram_count
      (Distal_obs.Metrics.histogram ~buckets:Distal_obs.Metrics.seconds_buckets
         (Session.metrics session) name)
  in
  let bad = Api.Fault.plan ~kills:[ Api.Fault.kill ~proc:99 ~step:0 () ] () in
  ignore (Session.run_exn ~seed:1 session req);
  ignore (Session.run_exn ~seed:1 session req);
  ignore (Session.run_exn ~mode:Exec.Model ~seed:2 session req);
  (match Session.run ~faults:bad ~seed:4 session req with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a kill on a missing processor must fail the run");
  (match Session.run ~seed:5 session { req with Api.req_stmt = "A(i,j) = " } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a statement that does not parse must fail");
  Alcotest.(check (list (pair string int)))
    "requests through each layer"
    [ ("serve.compile_s", 5); ("serve.inputs_s", 2); ("serve.run_s", 3); ("serve.copy_s", 3) ]
    (List.map
       (fun n -> (n, count n))
       [ "serve.compile_s"; "serve.inputs_s"; "serve.run_s"; "serve.copy_s" ])

(* A Model request never builds the inputs its seed names: at a size
   whose inputs alone would need about a terabyte (an allocation the
   kernel refuses outright), it is still served, with exactly the modeled
   stats of Api.estimate. *)
let test_session_model_no_inputs () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request ~n:200_000 ~chunks:100_000 () in
  let o = Session.run_exn ~mode:Exec.Model ~seed:5 session req in
  Alcotest.(check bool) "no output" true (o.Session.result.Exec.output = None);
  Alcotest.(check string) "stats = Api.estimate"
    (Stats.to_string (Api.estimate (Api.compile_request_exn req)))
    (Stats.to_string o.Session.result.Exec.stats)

(* Model traffic never touches the domain pool, so serving it spawns no
   worker domain; a Full request on the same session does use the pool. *)
let test_session_model_no_pool () =
  let session = Session.create ~domains:2 () in
  let pool = Pool.get ~size:2 () in
  let jobs () = (Pool.stats pool).Pool.jobs in
  let before = jobs () in
  List.iter
    (fun (seed, req) -> ignore (Session.run_exn ~mode:Exec.Model ~seed session req))
    [ (1, gemm_request ()); (2, gemm_request ~n:64 ~chunks:4 ()); (1, gemm_request ()) ];
  Alcotest.(check int) "Model requests ran no pool job" before (jobs ());
  ignore (Session.run_exn ~seed:1 session (gemm_request ()));
  if jobs () = before then Alcotest.fail "a Full request ran no pool job"

(* Caching off: every request is compile + run, and the bytes still
   match. *)
let test_session_cache_off () =
  let session = Session.create ~plan_cache:0 ~domains:1 () in
  let req = gemm_request () in
  let expected = observe_direct ~seed:5 req in
  let o1 = Session.run_exn ~seed:5 session req in
  let o2 = Session.run_exn ~seed:5 session req in
  Alcotest.(check bool) "never plan-cached" false
    (o1.Session.plan_cached || o2.Session.plan_cached);
  Alcotest.(check bool) "never result-cached" false
    (o1.Session.result_cached || o2.Session.result_cached);
  Alcotest.(check (pair (list int64) string)) "uncached = direct" expected
    (observe_outcome o2)

(* One shared session driven concurrently from pool items, one per
   simulated lane (the session replays on one domain, leaving the pool to
   the lanes): every lane must see exactly the bytes of a direct run,
   whatever interleaving of hits, misses and single-flight compiles the
   lanes produce. *)
let test_session_concurrent () =
  let session = Session.create ~domains:1 () in
  let reqs = [| gemm_request ~chunks:2 (); gemm_request ~chunks:4 (); gemm_request ~n:16 () |] in
  let expected = Array.map (observe_direct ~seed:9) reqs in
  let lanes = 3 and rounds = 5 in
  let failures = Array.make lanes "" in
  let pool = Pool.create lanes in
  Pool.parallel_for pool ~n:lanes (fun ~lane:_ lane ->
      for round = 0 to rounds - 1 do
        let i = (lane + round) mod Array.length reqs in
        let o = Session.run_exn ~seed:9 session reqs.(i) in
        if observe_outcome o <> expected.(i) && failures.(lane) = "" then
          failures.(lane) <- Printf.sprintf "lane %d diverged on request %d" lane i
      done);
  Pool.shutdown pool;
  Array.iter (fun f -> if f <> "" then Alcotest.fail f) failures;
  let c = Session.counters session in
  Alcotest.(check int) "every request counted" (lanes * rounds) c.Session.requests;
  (* Single-flight: each distinct shape compiled exactly once. *)
  Alcotest.(check int) "one compile per shape" (Array.length reqs) c.Session.plan_misses

(* {2 Wire framing} *)

let test_wire_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 'y'; "{\"a\": [1, 2, 3]}"; "nl\nin\npayload" ] in
  let stream = String.concat "" (List.map Wire.encode payloads) in
  (* Feed the byte stream in every chunk size: frame boundaries must not
     matter. *)
  List.iter
    (fun chunk ->
      let dec = Wire.decoder () in
      let got = ref [] in
      let i = ref 0 in
      while !i < String.length stream do
        let n = min chunk (String.length stream - !i) in
        Wire.feed dec (Bytes.of_string (String.sub stream !i n)) 0 n;
        i := !i + n;
        let rec drain () =
          match Wire.next dec with
          | Ok (Some p) ->
              got := p :: !got;
              drain ()
          | Ok None -> ()
          | Error e -> Alcotest.failf "decode error: %s" e
        in
        drain ()
      done;
      Alcotest.(check (list string))
        (Printf.sprintf "chunk size %d" chunk)
        payloads (List.rev !got);
      Alcotest.(check bool) "no partial frame left" false (Wire.pending dec))
    [ 1; 7; 9; 64; String.length stream ]

let test_wire_bad_header () =
  let dec = Wire.decoder () in
  let feed s = Wire.feed dec (Bytes.of_string s) 0 (String.length s) in
  feed "99999999\n";
  (match Wire.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame must be rejected");
  let dec2 = Wire.decoder () in
  let s2 = "not-num!\n" in
  Wire.feed dec2 (Bytes.of_string s2) 0 (String.length s2);
  (match Wire.next dec2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed header must be rejected");
  (* A header is exactly eight decimal digits: signs, radix prefixes and
     underscores are malformed even where they spell a valid length. *)
  List.iter
    (fun (header, payload) ->
      let dec = Wire.decoder () in
      let s = header ^ "\n" ^ payload ^ "\n" in
      Wire.feed dec (Bytes.of_string s) 0 (String.length s);
      match Wire.next dec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "header %S must be rejected" header)
    [
      ("0x000003", "abc");
      ("0000_003", "abc");
      ("+0000003", "abc");
      ("0b000011", "abc");
      ("0o000003", "abc");
      ("-0000000", "");
    ]

(* Frames that arrive in one read are decoded where they lie: decoding
   5,000 of them allocates the buffer, the payloads and a constant per
   frame, not a copy of the unread remainder per frame (which came to
   264 MB here). *)
let test_wire_one_read () =
  let n = 5_000 in
  let payloads = List.init n (fun i -> Printf.sprintf "{\"id\":%d}" i) in
  let stream = Bytes.of_string (String.concat "" (List.map Wire.encode payloads)) in
  let decode () =
    let dec = Wire.decoder () in
    Wire.feed dec stream 0 (Bytes.length stream);
    let rec drain acc =
      match Wire.next dec with
      | Ok (Some p) -> drain (p :: acc)
      | Ok None -> (List.rev acc, Wire.pending dec)
      | Error e -> Alcotest.failf "decode error: %s" e
    in
    drain []
  in
  let got, pending = decode () in
  Alcotest.(check (list string)) "frames in order" payloads got;
  Alcotest.(check bool) "nothing left" false pending;
  let minor, major = Test_kernels.words_of (fun () -> ignore (decode ())) in
  let bound = Bytes.length stream + (32 * n) in
  if minor +. major > float_of_int bound then
    Alcotest.failf "decoding %d bytes allocated %.0f minor + %.0f major words (bound %d)"
      (Bytes.length stream) minor major bound

let test_wire_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Wire.send a "hello";
  Wire.send a "world";
  Alcotest.(check (result (option string) string)) "first" (Ok (Some "hello")) (Wire.recv b);
  Alcotest.(check (result (option string) string)) "second" (Ok (Some "world")) (Wire.recv b);
  (* Clean EOF on a boundary. *)
  Unix.close a;
  Alcotest.(check (result (option string) string)) "clean EOF" (Ok None) (Wire.recv b);
  Unix.close b;
  (* A peer dying mid-frame is an error, not a clean EOF. *)
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Wire.encode "truncated" in
  let half = String.length frame / 2 in
  ignore (Unix.write_substring c frame 0 half);
  Unix.close c;
  (match Wire.recv d with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-frame EOF must be an error");
  Unix.close d

(* {2 Protocol codecs} *)

let tricky_floats =
  [| 0.0; -0.0; 0.1; -1.5; 1e-300; 4097.3; 1.7976931348623157e308;
     4.9e-324; 3.141592653589793 |]

let gemm_submit ?faults ?(mode = Exec.Full) ?(seed = 42) ~id ?(n = 8) ?(chunks = 2) () =
  Protocol.submit ~id ~mode ~seed ?faults ~machine_dims:[| 2; 2 |]
    ~tensors:
      [
        { Protocol.td_name = "A"; td_shape = [| n; n |]; td_dist = "[x,y] -> [x,y]" };
        { Protocol.td_name = "B"; td_shape = [| n; n |]; td_dist = "[x,y] -> [x,y]" };
        { Protocol.td_name = "C"; td_shape = [| n; n |]; td_dist = "[x,y] -> [x,y]" };
      ]
    ~stmt:"A(i,j) = B(i,k) * C(k,j)" ~schedule:(gemm_schedule chunks) ()

let test_protocol_client_roundtrip () =
  let msgs =
    [
      Protocol.Submit
        (Protocol.submit ~id:3 ~node_factors:[| 2; 1 |] ~gpu:true ~mem_per_proc:1e9
           ~virtual_grid:[| 8 |] ~mode:Exec.Model ~seed:7 ~faults:"checkpoint=2"
           ~machine_dims:[| 2; 2 |]
           ~tensors:[ { Protocol.td_name = "A"; td_shape = [||]; td_dist = "[] -> [0]" } ]
           ~stmt:"a() = b()" ~schedule:"sched \"quoted\"\nnewline" ());
      Protocol.Submit (gemm_submit ~id:0 ());
      Protocol.Stats;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun msg ->
      match Protocol.decode_client (Protocol.encode_client msg) with
      | Ok got when got = msg -> ()
      | Ok _ -> Alcotest.fail "client message round-trip changed the message"
      | Error e -> Alcotest.failf "client message round-trip failed: %s" e)
    msgs

let test_protocol_server_roundtrip () =
  let out = Dense.create [| 3; 3 |] in
  Array.iteri (fun i v -> Dense.set_lin out i v) tricky_floats;
  let stats = Stats.create () in
  stats.Stats.time <- 0.1;
  stats.Stats.flops <- 12.0;
  stats.Stats.bytes_inter <- 1e9;
  let msgs =
    [
      Protocol.Result
        { rid = 4; plan_cached = true; result_cached = false; batch = 3; stats;
          output = Some out };
      Protocol.Result
        { rid = 5; plan_cached = false; result_cached = false; batch = 1;
          stats = Stats.create (); output = None };
      Protocol.Rejected { rid = 6; retry_after_s = 0.25; reason = "queue full" };
      Protocol.Failed { rid = -1; reason = "bad \"json\"" };
      Protocol.StatsReply
        { queue_depth = 2; served = 9;
          metrics = Json.Obj [ ("serve.requests", Json.Float 9.0) ] };
      Protocol.ShutdownAck;
    ]
  in
  List.iter
    (fun msg ->
      match Protocol.decode_server (Protocol.encode_server msg) with
      | Error e -> Alcotest.failf "server message round-trip failed: %s" e
      | Ok got -> (
          match (msg, got) with
          | Protocol.Result r, Protocol.Result g ->
              Alcotest.(check (list int64)) "output bits survive the wire"
                (bits r.Protocol.output) (bits g.Protocol.output);
              Alcotest.(check string) "stats survive the wire"
                (Stats.to_string r.Protocol.stats) (Stats.to_string g.Protocol.stats);
              Alcotest.(check bool) "flags survive" true
                (r.Protocol.rid = g.Protocol.rid
                && r.Protocol.plan_cached = g.Protocol.plan_cached
                && r.Protocol.result_cached = g.Protocol.result_cached
                && r.Protocol.batch = g.Protocol.batch)
          | m, g when m = g -> ()
          | _ -> Alcotest.fail "server message round-trip changed the message"))
    msgs

(* Outputs travel as their raw bytes, so any bit pattern at all — NaN
   payloads, infinities, signed zeros, subnormals — must come back
   unchanged, whatever the shape. *)
let qcheck_output_bits_exact =
  let reply bits =
    let out = Dense.create [| List.length bits |] in
    List.iteri (fun i b -> Dense.set_lin out i (Int64.float_of_bits b)) bits;
    Protocol.Result
      { rid = 1; plan_cached = false; result_cached = true; batch = 1;
        stats = Stats.create (); output = Some out }
  in
  QCheck.Test.make ~name:"reply outputs are bit-exact for any float bits" ~count:200
    QCheck.(list int64)
    (fun l ->
      match Protocol.decode_server (Protocol.encode_server (reply l)) with
      | Ok (Protocol.Result g) -> bits g.Protocol.output = l
      | _ -> false)

(* "0000000000000080 ..." as the bytes it spells, two hex digits each. *)
let of_hex hex =
  let hex = String.concat "" (String.split_on_char ' ' hex) in
  String.init (String.length hex / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))

let f64le values =
  let b = Bytes.create (8 * List.length values) in
  List.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v)) values;
  Bytes.to_string b

let test_protocol_output_payloads () =
  let head ?(status = {|"ok"|}) output =
    Printf.sprintf {|{"type":"result","id":1,"status":%s,"stats":%s,"output":%s}|} status
      (Json.to_string (Protocol.json_of_stats (Stats.create ())))
      output
  in
  let three = f64le [ 1.5; -0.0; Float.infinity ] in
  (match Protocol.decode_server (head {|{"shape":[3],"f64le":24}|} ^ "\n" ^ three) with
  | Ok (Protocol.Result r) ->
      Alcotest.(check (list int64)) "f64le tail"
        (List.map Int64.bits_of_float [ 1.5; -0.0; Float.infinity ])
        (bits r.Protocol.output)
  | _ -> Alcotest.fail "an f64le tail must decode");
  (* Special values survive a whole frame, through the incremental
     decoder a client reads with. *)
  let specials =
    [ Int64.float_of_bits 0x7FF4000000000001L; -0.0; Float.infinity; Float.neg_infinity;
      4.9e-324 ]
  in
  let out = Dense.create [| 5 |] in
  List.iteri (Dense.set_lin out) specials;
  let frame =
    Wire.encode
      (Protocol.encode_server
         (Protocol.Result
            { rid = 2; plan_cached = false; result_cached = false; batch = 1;
              stats = Stats.create (); output = Some out }))
  in
  let dec = Wire.decoder () in
  Wire.feed dec (Bytes.of_string frame) 0 (String.length frame);
  (match Result.map (Option.map Protocol.decode_server) (Wire.next dec) with
  | Ok (Some (Ok (Protocol.Result r))) ->
      Alcotest.(check (list int64)) "special values through a frame"
        (List.map Int64.bits_of_float specials) (bits r.Protocol.output)
  | _ -> Alcotest.fail "a framed reply must decode");
  (* Malformed payloads are errors, never exceptions. *)
  List.iter
    (fun (what, payload) ->
      match Protocol.decode_server payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must be rejected" what
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [
      ("short tail", head {|{"shape":[3],"f64le":24}|} ^ "\n" ^ String.sub three 0 23);
      ("long tail", head {|{"shape":[3],"f64le":24}|} ^ "\n" ^ three ^ "\000");
      ("count not 8 per element", head {|{"shape":[3],"f64le":16}|} ^ "\n" ^ String.sub three 0 16);
      ("count not an int", head {|{"shape":[3],"f64le":"24"}|} ^ "\n" ^ three);
      ("missing count", head {|{"shape":[3]}|} ^ "\n" ^ three);
      ("output without a tail", head {|{"shape":[3],"f64le":24}|});
      ("empty output without a tail", head {|{"shape":[0],"f64le":0}|});
      ("tail without an output", head "null" ^ "\n" ^ three);
      ("tail on a failed reply", head ~status:{|"error","error":"e"|} "null" ^ "\n" ^ three);
      ("tail on a stats reply", {|{"type":"stats","queue_depth":0,"served":0}|} ^ "\n");
      ("newline dropped", head {|{"shape":[3],"f64le":24}|} ^ three);
      ("negative extent", head {|{"shape":[-1],"f64le":-8}|} ^ "\n");
      ("overflowing shape", head {|{"shape":[4611686018427387903,4],"f64le":0}|} ^ "\n");
      ("decimal values", head {|{"shape":[1],"values":[1.0]}|} ^ "\n");
    ]

(* {2 Golden wire frames}

   The exact frames of one message of each kind. A result with an output
   is its head, a newline and the output's bytes, written here in hex,
   8 bytes (one little-endian float64) per group. Outputs of 0-4
   elements, the special values, a 2-D and a scalar shape, a result
   without output and the other replies complete the set. *)

let golden_stats () =
  let s = Stats.create () in
  s.Stats.time <- 0.125;
  s.Stats.flops <- 4096.0;
  s.Stats.bytes_intra <- 1024.0;
  s.Stats.bytes_inter <- 1e9;
  s.Stats.messages <- 12;
  s.Stats.peak_mem <- 65536.0;
  s.Stats.tasks <- 4;
  s.Stats.steps <- 2;
  s

let golden_result shape values =
  let output =
    Option.map
      (fun values ->
        let d = Dense.create shape in
        List.iteri (Dense.set_lin d) values;
        d)
      values
  in
  Protocol.Result
    { rid = 7; plan_cached = true; result_cached = false; batch = 2;
      stats = golden_stats (); output }

let frame len payload = Printf.sprintf "%08d\n%s\n" len payload

(* Every golden result shares its head up to the output. *)
let result_head output =
  {|{"type":"result","id":7,"status":"ok","plan_cached":true,"result_cached":false,|}
  ^ {|"batch":2,"stats":{"time":0.125,"flops":4096.0,"bytes_intra":1024.0,|}
  ^ {|"bytes_inter":1000000000.0,"messages":12,"peak_mem":65536.0,"oom":false,|}
  ^ {|"tasks":4,"steps":2},"output":|} ^ output ^ "}"

let output_frame len output tail = frame len (result_head output ^ "\n" ^ of_hex tail)

let golden_frames =
  [
    ( "0 elements",
      golden_result [| 0 |] (Some []),
      output_frame 274 {|{"shape":[0],"f64le":0}|} "" );
    ( "1 element",
      golden_result [| 1 |] (Some [ 1.5 ]),
      output_frame 282 {|{"shape":[1],"f64le":8}|} "000000000000f83f" );
    ( "2 elements",
      golden_result [| 2 |] (Some [ 1.5; -2.25 ]),
      output_frame 291 {|{"shape":[2],"f64le":16}|} "000000000000f83f 00000000000002c0" );
    ( "3 elements",
      golden_result [| 3 |] (Some [ 0.1; 2.0; 3e300 ]),
      output_frame 299 {|{"shape":[3],"f64le":24}|}
        "9a9999999999b93f 0000000000000040 355800662deb517e" );
    ( "4 elements",
      golden_result [| 4 |] (Some [ 1.0; 2.0; 3.0; 4.0 ]),
      output_frame 307 {|{"shape":[4],"f64le":32}|}
        "000000000000f03f 0000000000000040 0000000000000840 0000000000001040" );
    ( "special values",
      golden_result [| 5 |]
        (Some
           [ Int64.float_of_bits 0x7FF4000000000001L; -0.0; Float.infinity;
             Float.neg_infinity; 4.9e-324 ]),
      output_frame 315 {|{"shape":[5],"f64le":40}|}
        "010000000000f47f 0000000000000080 000000000000f07f 000000000000f0ff 0100000000000000" );
    ( "2-D shape",
      golden_result [| 2; 3 |] (Some [ 1.0; -1.0; 0.5; 0.25; 1e-3; 7.0 ]),
      output_frame 325 {|{"shape":[2,3],"f64le":48}|}
        "000000000000f03f 000000000000f0bf 000000000000e03f 000000000000d03f fca9f1d24d62503f \
         0000000000001c40" );
    ( "scalar shape",
      golden_result [||] (Some [ 42.0 ]),
      output_frame 281 {|{"shape":[],"f64le":8}|} "0000000000004540" );
    ("no output", golden_result [||] None, frame 254 (result_head "null"));
    ( "failed",
      Protocol.Failed { rid = 3; reason = "bad \"json\"\n" },
      frame 66 {|{"type":"result","id":3,"status":"error","error":"bad \"json\"\n"}|} );
    ( "rejected",
      Protocol.Rejected
        { rid = 4; retry_after_s = 0.001; reason = "queue full (depth 64, limit 64)" },
      frame 108 {|{"type":"result","id":4,"status":"rejected","retry_after_s":0.001,"error":"queue full (depth 64, limit 64)"}|} );
    ( "stats",
      Protocol.StatsReply
        { queue_depth = 1; served = 5;
          metrics = Json.Obj [ ("serve.requests", Json.Float 5.0); ("serve.admitted", Json.Int 5) ] },
      frame 95 {|{"type":"stats","queue_depth":1,"served":5,"metrics":{"serve.requests":5.0,"serve.admitted":5}}|} );
    ("shutdown ack", Protocol.ShutdownAck, frame 23 {|{"type":"shutdown_ack"}|});
  ]

let test_protocol_golden_frames () =
  List.iter
    (fun (what, msg, frame) ->
      Alcotest.(check string) what frame (Wire.encode (Protocol.encode_server msg));
      let payload = String.sub frame 9 (String.length frame - 10) in
      match (msg, Protocol.decode_server payload) with
      | Protocol.Result r, Ok (Protocol.Result g) ->
          Alcotest.(check (list int64)) (what ^ " decodes") (bits r.Protocol.output)
            (bits g.Protocol.output);
          Alcotest.(check (option (array int))) (what ^ " shape")
            (Option.map Dense.shape r.Protocol.output)
            (Option.map Dense.shape g.Protocol.output)
      | Protocol.Result _, _ -> Alcotest.failf "%s must decode to a result" what
      | _, Ok _ -> ()
      | _, Error e -> Alcotest.failf "%s must decode: %s" what e)
    golden_frames

(* {2 The one-pass reply path} *)

(* The server's frame is byte for byte the golden frame. Framed into a
   buffer with room, it takes the buffer's first bytes and leaves the
   rest; without room, it takes one allocation of its exact size. *)
let test_protocol_frame_server () =
  let room = Bytes.make 4096 '#' in
  List.iter
    (fun (what, msg, frame) ->
      let n = String.length frame in
      let b, len = Protocol.frame_server room msg in
      Alcotest.(check bool) (what ^ ": into the given buffer") true (b == room);
      Alcotest.(check string) what frame (Bytes.sub_string b 0 len);
      Alcotest.(check char) (what ^ ": nothing written past it") '#' (Bytes.get room n);
      Bytes.fill room 0 n '#';
      let b, len = Protocol.frame_server (Bytes.create (n - 1)) msg in
      Alcotest.(check (pair int string)) (what ^ ": fresh when it does not fit") (n, frame)
        (Bytes.length b, Bytes.sub_string b 0 len))
    golden_frames;
  match
    Wire.frame Bytes.empty (Wire.max_frame + 1) (fun _ _ ->
        Alcotest.fail "wrote an oversize frame")
  with
  | _ -> Alcotest.fail "an oversize frame must be refused"
  | exception Invalid_argument _ -> ()

(* [A = B] over tensors of [shape]: what admission reads of a submit. *)
let shape_submit ~mode shape =
  let idx = String.concat "," (List.init (Array.length shape) (fun d -> String.make 1 "ijk".[d])) in
  let dist = Printf.sprintf "[%s] -> [x]" (String.concat "," (List.init (Array.length shape) (fun d -> String.make 1 "xyz".[d]))) in
  Protocol.submit ~id:1 ~mode ~machine_dims:[| 2 |]
    ~tensors:
      [
        { Protocol.td_name = "A"; td_shape = shape; td_dist = dist };
        { Protocol.td_name = "B"; td_shape = shape; td_dist = dist };
      ]
    ~stmt:(Printf.sprintf "A(%s) = B(%s)" idx idx) ~schedule:"" ()

(* [Protocol.output_length] is what an output adds to a reply: its part
   of the head, the newline and 8 bytes per element. Admission turns a
   Full request away exactly when that exceeds one frame. *)
let test_protocol_output_length () =
  let length output =
    String.length
      (Protocol.encode_server
         (Protocol.Result
            { rid = 1; plan_cached = false; result_cached = false; batch = 1;
              stats = golden_stats (); output }))
  in
  List.iter
    (fun shape ->
      Alcotest.(check (option int))
        (Printf.sprintf "output_length [%s]"
           (String.concat "," (List.map string_of_int (Array.to_list shape))))
        (Some (length (Some (Dense.create shape)) - length None + String.length "null"))
        (Protocol.output_length shape))
    [ [||]; [| 0 |]; [| 1 |]; [| 2 |]; [| 3 |]; [| 10 |]; [| 3; 4 |]; [| 2; 0; 5 |];
      [| 128; 128 |] ];
  Alcotest.(check (option int)) "128x128" (Some (34 + 1 + 131072))
    (Protocol.output_length [| 128; 128 |]);
  Alcotest.(check (option int)) "negative extent" None (Protocol.output_length [| 3; -1 |]);
  Alcotest.(check (option int)) "overflowing count" (Some max_int)
    (Protocol.output_length [| max_int / 2; 4 |]);
  let admitted shape = Distal_serve.Server.oversize_reply (shape_submit ~mode:Exec.Full shape) in
  (* An output of exactly one frame is admitted; one element more is not. *)
  Alcotest.(check (option int)) "exactly one frame" (Some Wire.max_frame)
    (Protocol.output_length [| 9; 9; 103563 |]);
  Alcotest.(check (option string)) "an output of exactly one frame admitted" None
    (admitted [| 9; 9; 103563 |]);
  Alcotest.(check bool) "81 elements more refused" true
    (Option.is_some (admitted [| 9; 9; 103564 |]));
  (* The largest 1-D output that fits one frame, found by bisection. *)
  let fits n =
    match Protocol.output_length [| n |] with Some l -> l <= Wire.max_frame | None -> false
  in
  let rec bisect lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fits mid then bisect mid hi else bisect lo mid
  in
  let k = bisect 0 Wire.max_frame in
  Alcotest.(check bool) "boundary" true (fits k && not (fits (k + 1)));
  Alcotest.(check (option string)) "largest output admitted" None (admitted [| k |]);
  (match admitted [| k + 1 |] with
  | Some reason ->
      Alcotest.(check bool) ("names the frame limit: " ^ reason) true
        (Astring_contains.contains reason "frame limit")
  | None -> Alcotest.fail "one element more must be refused");
  Alcotest.(check (option string)) "a Model request carries no output" None
    (Distal_serve.Server.oversize_reply (shape_submit ~mode:Exec.Model [| k + 1 |]));
  Alcotest.(check (option string)) "a negative extent is left to Api.problem" None
    (admitted [| -1 |])


(* A warm 128x128 reply: encoding (or framing without room) allocates
   the frame and a small constant, framing into a buffer with room only
   the small constant, decoding only a small constant (the output's
   bigarray lies outside the OCaml heap): the parsed head and its tree.
   Counted exactly, the constant is 835 words framing, 785 encoding and
   1,293 decoding (it read under 512 on the old counter); the 1,358-word
   bounds are the largest plus 5%, for other compiler versions. A tail
   copied through a byte buffer or a string would add at least 16,384
   words, a float boxed per element 49,152. *)
let test_protocol_reply_allocation () =
  let d = Dense.random (Distal_support.Rng.create 3) [| 128; 128 |] in
  let msg =
    Protocol.Result
      { rid = 1; plan_cached = true; result_cached = false; batch = 1;
        stats = golden_stats (); output = Some d }
  in
  let frame = Wire.encode (Protocol.encode_server msg) in
  let payload = String.sub frame 9 (String.length frame - 10) in
  let words f =
    let minor, major = Test_kernels.words_of (fun () -> ignore (Sys.opaque_identity (f ()))) in
    minor +. major
  in
  let frame_words = float_of_int ((String.length frame / 8) + 2) in
  List.iter
    (fun (what, encode) ->
      let enc = words encode in
      if enc > frame_words +. 1_358.0 then
        Alcotest.failf "%s allocated %.0f words for a %.0f-word frame" what enc frame_words)
    [ ("frame_server", fun () -> ignore (Protocol.frame_server Bytes.empty msg));
      ("encode_server", fun () -> ignore (Protocol.encode_server msg)) ];
  let room = Bytes.create (String.length frame) in
  let into = words (fun () -> Protocol.frame_server room msg) in
  if into > 1_358.0 then Alcotest.failf "framing into a buffer allocated %.0f words" into;
  let dec = words (fun () -> Protocol.decode_server payload) in
  if dec > 1_358.0 then Alcotest.failf "decoding allocated %.0f words" dec

(* {3 Differential decoding}

   Valid replies are mutated — a tail truncated or extended by 1-7
   bytes, the newline dropped, a tail put on a reply that has no output,
   a wrong byte count, an overflowing shape, reordered keys, a repeated
   or escaped key, an error status, a payload cut anywhere — and
   [decode_server] must agree with a reference that splits at the first
   newline, parses the head with [Json.parse] and reads the tail with
   [Bytes.get_int64_le] and [Int64.float_of_bits]: the same message, or
   an error on both sides, never an exception. *)

let reference_decode doc =
  let ( let* ) = Result.bind in
  let head, tail =
    match String.index_opt doc '\n' with
    | None -> (doc, None)
    | Some h -> (String.sub doc 0 h, Some (Bytes.of_string (String.sub doc (h + 1) (String.length doc - h - 1))))
  in
  let* j = Json.parse head in
  let without_output = function
    | Json.Obj kvs ->
        Json.Obj (List.map (fun (k, v) -> if k = "output" then (k, Json.Null) else (k, v)) kvs)
    | v -> v
  in
  (* Everything but the output, through the head-only path. *)
  let* msg = Protocol.decode_server (Json.to_string (without_output j)) in
  let ok_status = Json.member "status" j = Some (Json.String "ok") in
  match (msg, Json.member "output" j, tail) with
  | Protocol.Result r, Some o, Some tail when ok_status && o <> Json.Null ->
      let* shape =
        match Json.member "shape" o with
        | Some (Json.List l) ->
            if List.for_all (function Json.Int _ -> true | _ -> false) l then
              Ok (Array.of_list (List.map (function Json.Int i -> i | _ -> 0) l))
            else Error "shape"
        | _ -> Error "shape"
      in
      let count =
        Array.fold_left
          (fun acc e ->
            match acc with
            | Some n when e >= 0 && (e = 0 || n <= max_int / 8 / e) -> Some (n * e)
            | _ -> None)
          (Some 1) shape
      in
      let* n = Option.to_result ~none:"count" count in
      let* () =
        match Json.member "f64le" o with
        | Some (Json.Int b) when b = 8 * n -> Ok ()
        | _ -> Error "f64le"
      in
      if Bytes.length tail <> 8 * n then Error "length"
      else
        let d = Dense.create shape in
        for i = 0 to n - 1 do
          Dense.set_lin d i (Int64.float_of_bits (Bytes.get_int64_le tail (8 * i)))
        done;
        Ok (Protocol.Result { r with output = Some d })
  | Protocol.Result _, Some o, None when ok_status && o <> Json.Null -> Error "no tail"
  | _, _, Some _ -> Error "a tail with no output"
  | _, _, None -> Ok msg

let same_message a b =
  match (a, b) with
  | Protocol.Result r, Protocol.Result g ->
      bits r.Protocol.output = bits g.Protocol.output
      && Option.map Dense.shape r.Protocol.output = Option.map Dense.shape g.Protocol.output
      && Stats.to_string r.Protocol.stats = Stats.to_string g.Protocol.stats
      && (r.rid, r.plan_cached, r.result_cached, r.batch)
         = (g.rid, g.plan_cached, g.result_cached, g.batch)
  | a, b -> a = b

let mutated_reply seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let shape = Array.init (int 3) (fun _ -> int 5) in
  let d = Dense.create shape in
  for i = 0 to Dense.size d - 1 do
    (* Some elements hold a newline byte, which must not end the head. *)
    let b = Random.State.int64 rng Int64.max_int in
    Dense.set_lin d i (Int64.float_of_bits (if int 4 = 0 then Int64.logor b 0x0AL else b))
  done;
  let msg =
    match int 10 with
    | 0 -> Protocol.Failed { rid = int 100; reason = "e\n" }
    | 1 ->
        Protocol.StatsReply
          { queue_depth = int 5; served = int 5; metrics = Json.Obj [ ("x", Json.Int 1) ] }
    | k ->
        Protocol.Result
          { rid = int 100; plan_cached = int 2 = 0; result_cached = false; batch = 1;
            stats = golden_stats (); output = (if k = 2 then None else Some d) }
  in
  let doc = Protocol.encode_server msg in
  let splice doc at len text =
    String.sub doc 0 at ^ text ^ String.sub doc (at + len) (String.length doc - at - len)
  in
  let newline doc = String.index_opt doc '\n' in
  (* The head alone, rewritten, with the tail after it unchanged. *)
  let in_head doc f =
    let h = Option.value (newline doc) ~default:(String.length doc) in
    f (String.sub doc 0 h) ^ String.sub doc h (String.length doc - h)
  in
  let rec shuffle = function
    | Json.Obj kvs ->
        let kvs = List.map (fun (k, v) -> (k, shuffle v)) kvs in
        let keyed = List.map (fun kv -> (Random.State.bits rng, kv)) kvs in
        Json.Obj (List.map snd (List.sort compare keyed))
    | v -> v
  in
  let retree head = match Json.parse head with Ok j -> Json.to_string (shuffle j) | Error _ -> head in
  let replace what by head =
    match Astring_contains.find head what with
    | Some i -> splice head i (String.length what) by
    | None -> head
  in
  let mutate doc =
    match int 11 with
    | 0 -> (
        (* The tail truncated. *)
        match newline doc with
        | Some h -> String.sub doc 0 (h + 1 + int (String.length doc - h))
        | None -> doc)
    | 1 -> doc ^ String.init (1 + int 7) (fun _ -> Char.chr (int 256))
    | 2 -> (match newline doc with Some h -> splice doc h 1 "" | None -> doc)
    | 3 -> doc ^ "\n" ^ String.make (8 * int 3) '\000'
    | 4 -> in_head doc retree
    | 5 -> in_head doc (replace {|"shape":[|} {|"shape":[4611686018427387903,4,|})
    | 6 -> in_head doc (replace {|"f64le":|} {|"f64le":8|})
    | 7 -> in_head doc (fun h -> splice h (String.length h - 1) 0 {|,"output":null|})
    | 8 -> in_head doc (fun h -> splice h 1 0 {|"output":{"shape":[1],"f64le":8},|})
    | 9 -> in_head doc (replace {|"status":"ok"|} {|"status":"error","error":"e"|})
    | _ -> in_head doc (replace {|"output"|} {|"outp\u0075t"|})
  in
  let mutate doc =
    (* Sometimes the payload itself is cut short, anywhere. A payload cut
       to nothing has no place left to splice into. *)
    if int 12 = 0 then String.sub doc 0 (int (String.length doc + 1))
    else if doc = "" then doc
    else mutate doc
  in
  let rec apply doc k = if k = 0 then doc else apply (mutate doc) (k - 1) in
  apply doc (int 4)

let qcheck_decode_differential =
  QCheck.Test.make ~name:"decode_server agrees with the reference decoder" ~count:2000
    (QCheck.make ~print:mutated_reply QCheck.Gen.int)
    (fun seed ->
      let doc = mutated_reply seed in
      match (Protocol.decode_server doc, reference_decode doc) with
      | Ok a, Ok b -> same_message a b
      | Error _, Error _ -> true
      | _ -> false
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* {2 distald end to end}

   These tests drive the real server binary (built as a test dependency)
   over a real Unix-domain socket: Unix.create_process rather than fork,
   because the test runner may already have spawned pool domains. *)

(* Next to the test binary's directory, whatever directory the binary
   was started from. *)
let distald_exe =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/distald.exe"

let socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "distald-test-%d-%d.sock" (Unix.getpid ()) !counter)

let spawn_server ?(args = []) socket =
  let argv = Array.of_list ([ distald_exe; "--socket"; socket; "--quiet" ] @ args) in
  Unix.create_process distald_exe argv Unix.stdin Unix.stdout Unix.stderr

let wait_server pid = ignore (Unix.waitpid [] pid)

let kill_server pid =
  Unix.kill pid Sys.sigkill;
  wait_server pid

let stop_server client pid =
  (match Client.shutdown client with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  wait_server pid

let with_server ?args f =
  let socket = socket_path () in
  let pid = spawn_server ?args socket in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists socket then try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f socket pid)

let expect_result = function
  | Ok (Client.Ok_result r) -> r
  | Ok (Client.Rejected { reason; _ }) -> Alcotest.failf "rejected: %s" reason
  | Ok (Client.Failed reason) -> Alcotest.failf "failed: %s" reason
  | Error e -> Alcotest.failf "transport error: %s" e

let submit_expected (s : Protocol.submit) =
  let req =
    match Protocol.to_request s with
    | Ok r -> r
    | Error e -> Alcotest.failf "bad submit: %s" e
  in
  observe_direct ~seed:s.Protocol.seed req

let test_server_end_to_end () =
  with_server (fun socket pid ->
      let c1 = Client.connect_exn socket in
      let c2 = Client.connect_exn socket in
      let s_small = gemm_submit ~id:(Client.fresh_id c1) () in
      let s_big = gemm_submit ~id:(Client.fresh_id c2) ~n:16 ~chunks:4 () in
      (* Two clients, different shapes: both served, both byte-identical
         to direct runs. *)
      let r1 = expect_result (Client.submit c1 s_small) in
      let r2 = expect_result (Client.submit c2 s_big) in
      Alcotest.(check (pair (list int64) string)) "client 1 bytes"
        (submit_expected s_small)
        (bits r1.Protocol.output, Stats.to_string r1.Protocol.stats);
      Alcotest.(check (pair (list int64) string)) "client 2 bytes"
        (submit_expected s_big)
        (bits r2.Protocol.output, Stats.to_string r2.Protocol.stats);
      Alcotest.(check bool) "first sight compiles" false r1.Protocol.plan_cached;
      (* The same shape from the other client: plan and result reuse
         across connections. *)
      let s_again = { s_small with Protocol.id = Client.fresh_id c2 } in
      let r3 = expect_result (Client.submit c2 s_again) in
      Alcotest.(check bool) "cross-client plan reuse" true r3.Protocol.plan_cached;
      Alcotest.(check bool) "cross-client result reuse" true r3.Protocol.result_cached;
      Alcotest.(check (pair (list int64) string)) "replayed bytes"
        (submit_expected s_small)
        (bits r3.Protocol.output, Stats.to_string r3.Protocol.stats);
      (* Model mode over the wire: stats only. *)
      let s_model = gemm_submit ~id:(Client.fresh_id c1) ~mode:Exec.Model () in
      let r4 = expect_result (Client.submit c1 s_model) in
      Alcotest.(check (list int64)) "model mode has no output" [] (bits r4.Protocol.output);
      (match Client.stats c1 with
      | Ok (depth, served, _) ->
          Alcotest.(check int) "no queue backlog" 0 depth;
          Alcotest.(check int) "served count" 4 served
      | Error e -> Alcotest.failf "stats failed: %s" e);
      Client.close c2;
      stop_server c1 pid;
      Client.close c1;
      Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists socket))

(* A negative cache capacity is a configuration error: Server.config
   rejects it, so distald exits with a usage error before it binds and
   leaves no socket file behind. *)
let test_server_negative_capacities () =
  let module Server = Distal_serve.Server in
  List.iter
    (fun (flag, config) ->
      (match config () with
      | _ -> Alcotest.failf "%s: Server.config accepted it" flag
      | exception Invalid_argument _ -> ());
      let socket = socket_path () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists socket then Sys.remove socket)
        (fun () ->
          match Unix.waitpid [] (spawn_server ~args:[ flag ] socket) with
          | _, Unix.WEXITED 124 ->
              Alcotest.(check bool) (flag ^ " leaves no socket") false (Sys.file_exists socket)
          | _ -> Alcotest.failf "%s: distald did not exit with a usage error" flag))
    [
      ("--cache=-1", fun () -> Server.config ~plan_cache:(-1) ~socket_path:"unused" ());
      ("--results=-5", fun () -> Server.config ~result_cache:(-5) ~socket_path:"unused" ());
    ]

(* distald serves what each read brings in. Frames written in one
   [write] arrive in one read, so the server admits them in one round and
   serves them in one flush: that is how these tests hold requests
   together without any timing. *)
let send_together socket frames =
  (* The server may still be starting up. *)
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        ignore (Unix.select [] [] [] 0.02);
        connect (tries - 1)
  in
  let fd = connect 250 in
  let bytes = String.concat "" frames in
  if Unix.write_substring fd bytes 0 (String.length bytes) <> String.length bytes then
    Alcotest.fail "short write";
  fd

let client_frame msg = Wire.encode (Protocol.encode_client msg)

let recv_raw fd =
  match Wire.recv fd with
  | Ok (Some payload) -> (
      match Protocol.decode_server payload with
      | Ok msg -> msg
      | Error e -> Alcotest.failf "bad reply: %s" e)
  | Ok None -> Alcotest.fail "server closed the connection"
  | Error e -> Alcotest.failf "recv: %s" e

(* A metric's value from a stats reply ([0] when absent). *)
let served_metric c name =
  match Client.stats c with
  | Ok (_, _, Json.Obj kvs) -> (
      match List.assoc_opt name kvs with
      | Some (Json.Obj m) -> (
          match List.assoc_opt "value" m with Some (Json.Float v) -> v | _ -> 0.0)
      | _ -> 0.0)
  | Ok _ -> Alcotest.fail "stats reply without metrics"
  | Error e -> Alcotest.failf "stats: %s" e

(* A histogram's count from a stats reply ([-1] when absent). *)
let served_count c name =
  match Client.stats c with
  | Ok (_, _, Json.Obj kvs) -> (
      match List.assoc_opt name kvs with
      | Some (Json.Obj m) -> (
          match List.assoc_opt "count" m with Some (Json.Int n) -> n | _ -> -1)
      | _ -> -1)
  | Ok _ -> Alcotest.fail "stats reply without metrics"
  | Error e -> Alcotest.failf "stats: %s" e

(* distald stamps its own layers beside the session's: every client
   frame is decoded and every reply framed and written. A stats request
   is decoded before its reply snapshots the registry, and replied to
   after. *)
let test_server_stamps () =
  with_server (fun socket pid ->
      let c = Client.connect_exn socket in
      let submit s = ignore (expect_result (Client.submit c s)) in
      submit (gemm_submit ~id:(Client.fresh_id c) ());
      submit (gemm_submit ~id:(Client.fresh_id c) ());
      submit (gemm_submit ~id:(Client.fresh_id c) ~mode:Exec.Model ~seed:7 ());
      Alcotest.(check int) "frames decoded" 4 (served_count c "serve.decode_s");
      Alcotest.(check int) "replies sent" 4 (served_count c "serve.reply_s");
      Alcotest.(check int) "requests compiled" 3 (served_count c "serve.compile_s");
      Alcotest.(check int) "inputs drawn" 1 (served_count c "serve.inputs_s");
      Alcotest.(check int) "requests run" 2 (served_count c "serve.run_s");
      stop_server c pid;
      Client.close c)

(* distald hands each replayed output back to the session's pool once
   its reply is framed: after the first miss of a shape, misses on new
   seeds draw no new block, and every reply still carries its own run's
   bytes. *)
let test_server_releases_outputs () =
  with_server (fun socket pid ->
      let c = Client.connect_exn socket in
      let serve seed =
        let s = gemm_submit ~id:(Client.fresh_id c) ~seed ~n:16 () in
        let r = expect_result (Client.submit c s) in
        Alcotest.(check (pair (list int64) string))
          (Printf.sprintf "seed %d bytes" seed) (submit_expected s)
          (bits r.Protocol.output, Stats.to_string r.Protocol.stats)
      in
      serve 1;
      let blocks = served_metric c "serve.input_allocs" in
      Alcotest.(check (float 0.0)) "B, C and the output" 3.0 blocks;
      List.iter serve [ 2; 3; 4; 5 ];
      Alcotest.(check (float 0.0)) "no new blocks" blocks (served_metric c "serve.input_allocs");
      stop_server c pid;
      Client.close c)

(* A reply the socket cannot take at once stays in the outbox while the
   next reply is framed, and must keep its own bytes. A first 256x256
   reply (about 700 KB of frame, more than a socket buffer) leaves a
   spare buffer of that size; then two such replies on other seeds are
   framed before the client reads either. *)
let test_server_queued_frames () =
  with_server (fun socket pid ->
      let submit ~id ~seed = gemm_submit ~id ~seed ~n:256 () in
      let output fd =
        match recv_raw fd with
        | Protocol.Result r -> (bits r.Protocol.output, Stats.to_string r.Protocol.stats)
        | _ -> Alcotest.fail "expected a result"
      in
      let s0 = submit ~id:1 ~seed:1 in
      let fd = send_together socket [ client_frame (Submit s0) ] in
      Alcotest.(check (pair (list int64) string)) "first reply" (submit_expected s0) (output fd);
      let s1 = submit ~id:2 ~seed:2 and s2 = submit ~id:3 ~seed:3 in
      let frames = client_frame (Submit s1) ^ client_frame (Submit s2) in
      if Unix.write_substring fd frames 0 (String.length frames) <> String.length frames then
        Alcotest.fail "short write";
      let o1 = output fd in
      let o2 = output fd in
      Unix.close fd;
      Alcotest.(check (pair (list int64) string)) "queued reply" (submit_expected s1) o1;
      Alcotest.(check (pair (list int64) string)) "reply framed behind it" (submit_expected s2) o2;
      let c = Client.connect_exn socket in
      stop_server c pid;
      Client.close c)

(* Same-shape requests read together share a compile: the two replies
   report a batch of 2 and identical bytes, and the second replays the
   first's run. *)
let test_server_batching () =
  with_server (fun socket pid ->
      let s1 = gemm_submit ~id:1 () in
      let s2 = { s1 with Protocol.id = 2 } in
      let fd = send_together socket [ client_frame (Submit s1); client_frame (Submit s2) ] in
      let result () =
        match recv_raw fd with
        | Protocol.Result r -> r
        | _ -> Alcotest.fail "expected a result"
      in
      let r1 = result () in
      let r2 = result () in
      Unix.close fd;
      Alcotest.(check (pair int int)) "replies in order" (1, 2) (r1.Protocol.rid, r2.Protocol.rid);
      Alcotest.(check int) "one batch of two" 2 r1.Protocol.batch;
      Alcotest.(check int) "both members counted" 2 r2.Protocol.batch;
      Alcotest.(check (list int64)) "batch-mates identical"
        (bits r1.Protocol.output) (bits r2.Protocol.output);
      Alcotest.(check bool) "second member replays the first's run" true
        r2.Protocol.result_cached;
      let c = Client.connect_exn socket in
      stop_server c pid;
      Client.close c)

let test_server_admission () =
  with_server ~args:[ "--queue"; "1" ] (fun socket pid ->
      let s1 = gemm_submit ~id:1 () and s2 = gemm_submit ~id:2 () in
      let fd = send_together socket [ client_frame (Submit s1); client_frame (Submit s2) ] in
      (* The first submit takes the only queue slot, so the second is
         rejected at once, with a hint. *)
      (match recv_raw fd with
      | Protocol.Rejected { rid; retry_after_s; reason } ->
          Alcotest.(check int) "the second submit is rejected" 2 rid;
          Alcotest.(check bool) "positive retry-after" true (retry_after_s > 0.0);
          Alcotest.(check bool) "reason mentions the queue" true
            (Astring_contains.contains reason "queue")
      | _ -> Alcotest.fail "expected an admission rejection");
      (match recv_raw fd with
      | Protocol.Result r ->
          Alcotest.(check int) "the admitted submit is served" 1 r.Protocol.rid
      | _ -> Alcotest.fail "expected a result");
      Unix.close fd;
      (* Shutdown drains: a submit read together with the shutdown is
         still answered. *)
      let s3 = gemm_submit ~id:3 ~seed:7 () in
      let fd = send_together socket [ client_frame (Submit s3); client_frame Shutdown ] in
      let replies = [ recv_raw fd; recv_raw fd ] in
      Unix.close fd;
      if not (List.mem Protocol.ShutdownAck replies) then Alcotest.fail "shutdown not acknowledged";
      (match List.find_opt (function Protocol.Result _ -> true | _ -> false) replies with
      | Some (Protocol.Result r) ->
          Alcotest.(check (pair (list int64) string)) "drained result bytes"
            (submit_expected s3)
            (bits r.Protocol.output, Stats.to_string r.Protocol.stats)
      | _ -> Alcotest.fail "queued request must be served on shutdown");
      wait_server pid)

(* Clients killed mid-request leak nothing: a client whose admitted
   submit is followed by a malformed frame is dropped before the flush,
   taking its queue entry (and admission slot) with it, and a
   half-written frame followed by EOF just drops that client. *)
let test_server_client_killed () =
  with_server ~args:[ "--queue"; "1" ] (fun socket pid ->
      let s1 = gemm_submit ~id:1 () in
      let fd =
        send_together socket [ client_frame (Submit s1); Wire.encode "{not a message" ]
      in
      (match recv_raw fd with
      | Protocol.Failed { rid = -1; _ } -> ()
      | _ -> Alcotest.fail "a malformed frame must fail");
      Unix.close fd;
      (* A second client dies mid-frame: header promised more bytes than
         were ever written. *)
      let frame = client_frame (Submit s1) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      ignore (Unix.write_substring fd frame 0 (String.length frame / 2));
      ignore (Unix.select [] [] [] 0.05);
      Unix.close fd;
      let c2 = Client.connect_exn socket in
      let rec wait_admitted tries =
        if served_metric c2 "serve.admitted" < 1.0 then
          if tries = 0 then Alcotest.fail "the submit was never admitted"
          else begin
            ignore (Unix.select [] [] [] 0.02);
            wait_admitted (tries - 1)
          end
      in
      wait_admitted 100;
      Alcotest.(check (float 0.0)) "one submit admitted" 1.0 (served_metric c2 "serve.admitted");
      Alcotest.(check (float 0.0)) "the dropped client's entry never ran" 0.0
        (served_metric c2 "serve.requests");
      (match Client.stats c2 with
      | Ok (depth, _, _) -> Alcotest.(check int) "no leaked queue slot" 0 depth
      | Error e -> Alcotest.failf "stats failed: %s" e);
      (* The slot freed by the dead client admits new work. *)
      let s2 = gemm_submit ~id:(Client.fresh_id c2) () in
      let r = expect_result (Client.submit_wait c2 s2) in
      Alcotest.(check (pair (list int64) string)) "served after client kills"
        (submit_expected s2)
        (bits r.Protocol.output, Stats.to_string r.Protocol.stats);
      stop_server c2 pid;
      Client.close c2)

(* SIGKILL with requests in flight, restart on the same socket: the
   restarted server has cold caches and no state to recover, yet serves
   bit-identical results — recompile-on-miss is the whole recovery
   story. A large Full product (seconds of leaf work) keeps the server
   busy, and the small request read with it waits behind it. *)
let test_server_killed_and_restarted () =
  let socket = socket_path () in
  let pid = spawn_server socket in
  let s1 = gemm_submit ~id:1 () in
  let slow = gemm_submit ~id:2 ~n:1024 () in
  let fd = send_together socket [ client_frame (Submit slow); client_frame (Submit s1) ] in
  ignore (Unix.select [] [] [] 0.05);
  kill_server pid;
  (* The killed server takes the in-flight requests down with it. *)
  (match Wire.recv fd with
  | Ok (Some _) -> Alcotest.fail "a SIGKILLed server cannot have answered"
  | Ok None | Error _ -> ());
  Unix.close fd;
  (* Restart on the same path; the stale socket file is replaced. *)
  let pid2 = spawn_server socket in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid2) with Unix.Unix_error _ -> ());
      if Sys.file_exists socket then try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      let c3 = Client.connect_exn socket in
      let s2 = { s1 with Protocol.id = 7 } in
      let r = expect_result (Client.submit_wait c3 s2) in
      Alcotest.(check bool) "restarted server recompiles" false r.Protocol.plan_cached;
      Alcotest.(check (pair (list int64) string)) "restart reproduces the bytes"
        (submit_expected s1)
        (bits r.Protocol.output, Stats.to_string r.Protocol.stats);
      stop_server c3 pid2;
      Client.close c3)

(* Replies are written without blocking: a client that submits several
   large requests and reads nothing (its socket buffer fills after the
   first reply) must not stall another client, and its own replies must
   all arrive, whole and in order, once it reads. *)
let test_server_slow_reader () =
  with_server (fun socket _pid ->
      let slow = Client.connect_exn socket in
      let big = List.init 4 (fun k -> gemm_submit ~id:k ~seed:(k + 1) ~n:192 ~chunks:96 ()) in
      List.iter
        (fun s ->
          match Client.send slow (Protocol.Submit s) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send: %s" e)
        big;
      let fast = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fast) (fun () ->
          Unix.connect fast (Unix.ADDR_UNIX socket);
          let small = gemm_submit ~id:7 () in
          Wire.send fast (Protocol.encode_client (Protocol.Submit small));
          (match Unix.select [ fast ] [] [] 20.0 with
          | [], _, _ -> Alcotest.fail "a client that is not reading stalled the server"
          | _ -> ());
          match Wire.recv fast with
          | Ok (Some payload) -> (
              match Protocol.decode_server payload with
              | Ok (Protocol.Result r) ->
                  Alcotest.(check (pair (list int64) string)) "fast client served"
                    (submit_expected small)
                    (bits r.Protocol.output, Stats.to_string r.Protocol.stats)
              | _ -> Alcotest.fail "fast client got no result")
          | _ -> Alcotest.fail "fast client got no frame");
      List.iter
        (fun (s : Protocol.submit) ->
          match Client.recv slow with
          | Ok (Protocol.Result r) ->
              Alcotest.(check int) "replies in order" s.Protocol.id r.Protocol.rid;
              Alcotest.(check (list int64)) "slow client's bytes" (fst (submit_expected s))
                (bits r.Protocol.output)
          | Ok _ -> Alcotest.fail "slow client got a non-result"
          | Error e -> Alcotest.failf "slow client: %s" e)
        big;
      Client.close slow)

(* An elementwise copy: cheap to run, with an n x n output to carry. *)
let copy_submit ~id ~n =
  let t name = { Protocol.td_name = name; td_shape = [| n; n |]; td_dist = "[x,y] -> [x]" } in
  Protocol.submit ~id ~mode:Exec.Full ~seed:3 ~machine_dims:[| 2 |]
    ~tensors:[ t "A"; t "B" ] ~stmt:"A(i,j) = B(i,j)" ~schedule:"" ()

let output_digest = function
  | None -> ""
  | Some d -> Digest.to_hex (Digest.bytes (Dense.to_le_bytes d))

(* Replies are never dropped for their size: a client that pipelines
   requests whose replies together exceed one maximum frame (9 outputs
   of 1024x1024, over 8 MB each) before reading any of them still gets
   every reply, whole and in order. *)
let test_server_pipelined_large_replies () =
  let n = 1024 and k = 9 in
  Alcotest.(check bool) "replies exceed one frame" true (k * (8 * n * n) > Wire.max_frame);
  with_server (fun socket _pid ->
      let c = Client.connect_exn socket in
      let subs = List.init k (fun id -> copy_submit ~id ~n) in
      List.iter
        (fun s ->
          match Client.send c (Protocol.Submit s) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send: %s" e)
        subs;
      let expected =
        match Protocol.to_request (List.hd subs) with
        | Error e -> Alcotest.failf "bad submit: %s" e
        | Ok req ->
            let plan = Api.compile_request_exn req in
            let data = Api.random_inputs ~seed:3 plan in
            output_digest (Api.run_exn ~mode:Exec.Full ~domains:1 plan ~data).Exec.output
      in
      List.iter
        (fun (s : Protocol.submit) ->
          match Client.recv c with
          | Ok (Protocol.Result r) ->
              Alcotest.(check int) "replies in order" s.Protocol.id r.Protocol.rid;
              Alcotest.(check string) "output bytes" expected (output_digest r.Protocol.output)
          | Ok _ -> Alcotest.fail "got a non-result"
          | Error e -> Alcotest.failf "reply %d lost: %s" s.Protocol.id e)
        subs;
      Client.close c)

(* A client that leaves a reply unread past the stall timeout is dropped
   (its socket took none of a 2.1 MB reply), and the server carries on. *)
let test_server_drops_stalled_client () =
  with_server ~args:[ "--stall-timeout"; "0.2" ] (fun socket _pid ->
      let stalled = Client.connect_exn socket in
      (match Client.send stalled (Protocol.Submit (copy_submit ~id:0 ~n:512)) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" e);
      let c = Client.connect_exn socket in
      let rec wait tries =
        if served_metric c "serve.stalled_clients" < 1.0 then
          if tries = 0 then Alcotest.fail "the stalled client was never dropped"
          else begin
            ignore (Unix.select [] [] [] 0.05);
            wait (tries - 1)
          end
      in
      wait 200;
      let s = gemm_submit ~id:(Client.fresh_id c) () in
      let r = expect_result (Client.submit c s) in
      Alcotest.(check (list int64)) "server still serves" (fst (submit_expected s))
        (bits r.Protocol.output);
      Client.close stalled;
      Client.close c)

(* Fault plans over the wire (lib/fault tie-in): a served request run
   under kill + checkpoint recovery must produce exactly the fault-free
   bytes — recovery exactness survives serving. *)
let test_server_faulted_request () =
  with_server (fun socket pid ->
      let c = Client.connect_exn socket in
      let clean = gemm_submit ~id:(Client.fresh_id c) () in
      let faulted =
        { clean with
          Protocol.id = Client.fresh_id c;
          faults = Some "checkpoint=1; kill(proc=1, step=1)" }
      in
      let r_clean = expect_result (Client.submit c clean) in
      let r_faulted = expect_result (Client.submit c faulted) in
      Alcotest.(check (list int64)) "recovery-exact output over the wire"
        (bits r_clean.Protocol.output) (bits r_faulted.Protocol.output);
      (* The faulted run is its own result-cache entry, not a replay of
         the clean one. *)
      Alcotest.(check bool) "faulted run not conflated with clean" false
        r_faulted.Protocol.result_cached;
      Alcotest.(check (list int64)) "clean bytes match direct run"
        (fst (submit_expected clean)) (bits r_clean.Protocol.output);
      stop_server c pid;
      Client.close c)

(* A non-positive extent is client input, not a crash: both modes answer
   [Failed] naming the tensor, and the server keeps serving. *)
let test_server_bad_extents () =
  with_server (fun socket pid ->
      let c = Client.connect_exn socket in
      List.iter
        (fun mode ->
          let good = gemm_submit ~id:(Client.fresh_id c) ~mode () in
          let bad =
            { good with
              Protocol.id = Client.fresh_id c;
              tensors =
                List.map
                  (fun (td : Protocol.tensor_decl) ->
                    { td with td_shape = (if td.td_name = "C" then [| 4; 4 |] else [| -4; 4 |]) })
                  good.Protocol.tensors }
          in
          (match Client.submit c bad with
          | Ok (Client.Failed reason) ->
              Alcotest.(check bool) ("names the tensor: " ^ reason) true
                (Astring_contains.contains reason "tensor A")
          | _ -> Alcotest.fail "a negative extent must fail the request");
          ignore (expect_result (Client.submit c good)))
        [ Exec.Model; Exec.Full ];
      stop_server c pid;
      Client.close c)

(* A Full reply too large for one wire frame is client input, not a
   crash: the request fails at admission, naming the frame limit, and the
   server keeps serving. The same shape in Model mode has no output to
   carry and is served. *)
let test_server_oversize_reply () =
  with_server (fun socket pid ->
      let c = Client.connect_exn socket in
      let big = copy_submit ~id:(Client.fresh_id c) ~n:3000 in
      (match Client.submit c big with
      | Ok (Client.Failed reason) ->
          Alcotest.(check bool) ("names the frame limit: " ^ reason) true
            (Astring_contains.contains reason "frame limit")
      | _ -> Alcotest.fail "an oversize reply must fail the request");
      let model = { big with Protocol.id = Client.fresh_id c; mode = Exec.Model } in
      ignore (expect_result (Client.submit c model));
      let s = gemm_submit ~id:(Client.fresh_id c) () in
      let r = expect_result (Client.submit c s) in
      Alcotest.(check (pair (list int64) string)) "served after the oversize request"
        (submit_expected s)
        (bits r.Protocol.output, Stats.to_string r.Protocol.stats);
      stop_server c pid;
      Client.close c)

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
        Alcotest.test_case "lru capacity zero" `Quick test_lru_capacity_zero;
        Alcotest.test_case "lru find_or_add" `Quick test_lru_find_or_add;
        Alcotest.test_case "lru promote keeps MRU hits cheap and ordered" `Quick
          test_lru_promote_mru;
        Alcotest.test_case "lru weighted" `Quick test_lru_weighted;
        QCheck_alcotest.to_alcotest qcheck_lru_model;
        Alcotest.test_case "request fingerprint" `Quick test_fingerprint;
        Alcotest.test_case "session byte identity" `Quick test_session_identity;
        Alcotest.test_case "session defensive copies" `Quick test_session_defensive_copies;
        Alcotest.test_case "session eviction" `Quick test_session_eviction;
        Alcotest.test_case "session cache off" `Quick test_session_cache_off;
        Alcotest.test_case "session result size cap" `Quick test_session_result_size_cap;
        Alcotest.test_case "session result byte budget" `Quick test_session_result_byte_budget;
        Alcotest.test_case "session pooled inputs" `Quick test_session_pooled_inputs;
        Alcotest.test_case "session pooled output" `Quick test_session_pooled_output;
        Alcotest.test_case "session model builds no inputs" `Quick test_session_model_no_inputs;
        Alcotest.test_case "session model uses no pool" `Quick test_session_model_no_pool;
        Alcotest.test_case "session concurrent lanes" `Quick test_session_concurrent;
        Alcotest.test_case "session layer stamps" `Quick test_session_stamps;
        Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "wire bad headers" `Quick test_wire_bad_header;
        Alcotest.test_case "wire over a socketpair" `Quick test_wire_socketpair;
        Alcotest.test_case "wire frames of one read" `Quick test_wire_one_read;
        Alcotest.test_case "protocol client roundtrip" `Quick test_protocol_client_roundtrip;
        Alcotest.test_case "protocol server roundtrip" `Quick test_protocol_server_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_output_bits_exact;
        Alcotest.test_case "protocol output payloads" `Quick test_protocol_output_payloads;
        Alcotest.test_case "protocol golden frames" `Quick test_protocol_golden_frames;
        Alcotest.test_case "protocol frames in one allocation" `Quick test_protocol_frame_server;
        Alcotest.test_case "protocol exact output length" `Quick test_protocol_output_length;
        Alcotest.test_case "protocol reply allocation" `Quick test_protocol_reply_allocation;
        QCheck_alcotest.to_alcotest qcheck_decode_differential;
        Alcotest.test_case "distald end to end" `Quick test_server_end_to_end;
        Alcotest.test_case "distald rejects negative capacities" `Quick
          test_server_negative_capacities;
        Alcotest.test_case "distald batching" `Quick test_server_batching;
        Alcotest.test_case "distald layer stamps" `Quick test_server_stamps;
        Alcotest.test_case "distald releases outputs" `Quick test_server_releases_outputs;
        Alcotest.test_case "distald queued frames" `Quick test_server_queued_frames;
        Alcotest.test_case "distald admission control" `Quick test_server_admission;
        Alcotest.test_case "distald client killed mid-request" `Quick test_server_client_killed;
        Alcotest.test_case "distald killed mid-batch and restarted" `Quick
          test_server_killed_and_restarted;
        Alcotest.test_case "distald faulted request" `Quick test_server_faulted_request;
        Alcotest.test_case "distald fails bad extents and keeps serving" `Quick
          test_server_bad_extents;
        Alcotest.test_case "distald fails an oversize reply and keeps serving" `Quick
          test_server_oversize_reply;
        Alcotest.test_case "distald slow reader stalls only itself" `Quick
          test_server_slow_reader;
        Alcotest.test_case "distald pipelined replies above one frame" `Quick
          test_server_pipelined_large_replies;
        Alcotest.test_case "distald drops a stalled client" `Quick
          test_server_drops_stalled_client;
      ] );
  ]
