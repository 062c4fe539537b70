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
module Env = Distal_support.Env
module Json = Distal_support.Json
module Session = Distal_serve.Session
module Protocol = Distal_serve.Protocol
module Client = Distal_serve.Client

(* {2 LRU} *)

let test_lru_eviction_order () =
  let t = Lru.create ~capacity:2 in
  Alcotest.(check (option (pair string int))) "no eviction" None (Lru.put t "a" 1);
  Alcotest.(check (option (pair string int))) "no eviction" None (Lru.put t "b" 2);
  (* Touching [a] promotes it, so the next overflow evicts [b]. *)
  Alcotest.(check (option int)) "a hits" (Some 1) (Lru.find t "a");
  Alcotest.(check (option (pair string int)))
    "LRU binding evicted" (Some ("b", 2)) (Lru.put t "c" 3);
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ] (Lru.keys_mru t);
  Alcotest.(check (option int)) "b is gone" None (Lru.find t "b");
  (* Overwrite keeps the key and promotes. *)
  Alcotest.(check (option (pair string int))) "overwrite" None (Lru.put t "a" 10);
  Alcotest.(check (list string)) "overwrite promotes" [ "a"; "c" ] (Lru.keys_mru t);
  Alcotest.(check int) "hits" 1 (Lru.hits t);
  Alcotest.(check int) "misses" 1 (Lru.misses t);
  Alcotest.(check int) "evictions" 1 (Lru.evictions t)

let test_lru_capacity_zero () =
  let t = Lru.create ~capacity:0 in
  Alcotest.(check (option (pair string int))) "put drops" None (Lru.put t "a" 1);
  Alcotest.(check (option int)) "always miss" None (Lru.find t "a");
  Alcotest.(check int) "empty" 0 (Lru.length t);
  (match Lru.find_or_add t "a" (fun () -> Ok 7) with
  | Ok (7, `Miss None) -> ()
  | _ -> Alcotest.fail "capacity-0 find_or_add must compute and evict nothing");
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: capacity must be >= 0") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

let test_lru_find_or_add () =
  let t = Lru.create ~capacity:1 in
  let computes = ref 0 in
  let compute v () = incr computes; Ok v in
  (match Lru.find_or_add t "a" (compute 1) with
  | Ok (1, `Miss None) -> ()
  | _ -> Alcotest.fail "first lookup computes");
  (match Lru.find_or_add t "a" (compute 99) with
  | Ok (1, `Hit) -> ()
  | _ -> Alcotest.fail "second lookup hits the cached value");
  Alcotest.(check int) "computed once" 1 !computes;
  (match Lru.find_or_add t "b" (compute 2) with
  | Ok (2, `Miss (Some ("a", 1))) -> ()
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
  Alcotest.(check (option (pair string int)))
    "lru evicted" (Some ("b", 2)) (Lru.put t "d" 4);
  (* Single-entry cache: the only entry is permanently MRU; hammering it
     must neither corrupt the list nor lose counter updates. *)
  let s = Lru.create ~capacity:1 in
  ignore (Lru.put s "x" 0);
  for _ = 1 to 100 do ignore (Lru.find s "x") done;
  Alcotest.(check int) "single-entry hits" 100 (Lru.hits s);
  Alcotest.(check (list string)) "single-entry order" [ "x" ] (Lru.keys_mru s)

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
            if capacity = 0 then None
            else if List.mem_assoc k !model || List.length without < capacity then begin
              model := (k, v) :: without;
              None
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
              Some last
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

let test_session_explicit_data_key () =
  let session = Session.create ~domains:1 () in
  let req = gemm_request () in
  let plan = Api.compile_request_exn req in
  let data = Api.random_inputs ~seed:11 plan in
  let o1 = Session.run_exn ~data session req in
  Alcotest.(check bool) "explicit data executes" false o1.Session.result_cached;
  let o2 = Session.run_exn ~data session req in
  Alcotest.(check bool) "bit-identical data replays" true o2.Session.result_cached;
  (* Flip one bit of one input: the digest must separate the runs. *)
  let data2 = List.map (fun (n, d) -> (n, Dense.copy d)) data in
  (match data2 with
  | (_, d) :: _ -> Dense.set_lin d 0 (Dense.get_lin d 0 +. 1.0)
  | [] -> Alcotest.fail "expected inputs");
  let o3 = Session.run_exn ~data:data2 session req in
  Alcotest.(check bool) "perturbed data re-executes" false o3.Session.result_cached

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

(* One shared session driven concurrently from pool lanes (the session
   pins ~domains:1 — the pool is not reentrant): every lane must see
   exactly the bytes of a direct run, whatever interleaving of hits,
   misses and single-flight compiles the lanes produce. *)
let test_session_concurrent () =
  let session = Session.create ~domains:1 () in
  let reqs = [| gemm_request ~chunks:2 (); gemm_request ~chunks:4 (); gemm_request ~n:16 () |] in
  let expected = Array.map (observe_direct ~seed:9) reqs in
  let lanes = 3 and rounds = 5 in
  let failures = Array.make lanes "" in
  let pool = Pool.create lanes in
  Pool.run pool ~lanes (fun lane ->
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

(* {2 QCheck: random request sequences, cache on/off x domains 1/3} *)

let serve_sequence_once seed =
  let rng = Random.State.make [| seed |] in
  let shapes =
    [| gemm_request ~chunks:2 (); gemm_request ~chunks:4 (); gemm_request ~n:16 ();
       gemm_request ~dist:"[x,y] -> [x%1,y%1]" () |]
  in
  let len = 2 + Random.State.int rng 5 in
  let sequence =
    List.init len (fun _ ->
        (Random.State.int rng (Array.length shapes), 1 + Random.State.int rng 2))
  in
  let expected =
    List.map (fun (i, seed) -> observe_direct ~seed shapes.(i)) sequence
  in
  List.iter
    (fun (cache, domains) ->
      let session = Session.create ~plan_cache:cache ~domains () in
      List.iter2
        (fun (i, seed) exp ->
          let o = Session.run_exn ~seed session shapes.(i) in
          if observe_outcome o <> exp then
            QCheck.Test.fail_reportf
              "served bytes diverge (cache=%d domains=%d request=%d seed=%d)" cache
              domains i seed)
        sequence expected)
    [ (128, 1); (0, 1); (128, 3); (0, 3) ];
  true

let qcheck_serve_identity =
  QCheck.Test.make ~name:"served sequences byte-identical to direct runs" ~count:20
    QCheck.small_nat
    (fun seed -> Test_fuzz.seeded (succ seed) (fun () -> serve_sequence_once (succ seed)))

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
  match Wire.next dec2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed header must be rejected"

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

(* Outputs travel as base64 of their raw bytes, so any bit pattern at
   all — NaN payloads, infinities, signed zeros, subnormals — must come
   back unchanged, whatever the shape. *)
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

let test_protocol_output_payloads () =
  let decode output =
    Protocol.decode_server
      (Printf.sprintf
         {|{"type":"result","id":1,"status":"ok","stats":%s,"output":%s}|}
         (Json.to_string (Protocol.json_of_stats (Stats.create ())))
         output)
  in
  (match decode {|{"shape":[3],"f64le":"AAAAAAAA+D8AAAAAAAAAgAAAAAAAAPB/"}|} with
  | Ok (Protocol.Result r) ->
      Alcotest.(check (list int64)) "f64le payload"
        (List.map Int64.bits_of_float [ 1.5; -0.0; Float.infinity ])
        (bits r.Protocol.output)
  | _ -> Alcotest.fail "f64le payload must decode");
  (* Malformed payloads are errors, never exceptions. *)
  List.iter
    (fun (what, output) ->
      match decode output with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s must be rejected" what
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [
      ("short payload", {|{"shape":[3],"f64le":"AAAAAAAA+D8="}|});
      ("bad base64", {|{"shape":[1],"f64le":"AAAA!AAAAAA="}|});
      ("non-string payload", {|{"shape":[1],"f64le":[1]}|});
      ("negative extent", {|{"shape":[-1],"f64le":""}|});
      ("overflowing shape", {|{"shape":[4611686018427387903,4],"f64le":""}|});
      ("decimal values", {|{"shape":[1],"values":[1.0]}|});
      ("missing payload", {|{"shape":[2]}|});
    ]

(* {2 DISTAL_SERVE_* environment variables} *)

let with_env name value f =
  let old = Option.value (Sys.getenv_opt name) ~default:"" in
  Fun.protect ~finally:(fun () -> Unix.putenv name old) (fun () ->
      Unix.putenv name value;
      f ())

let test_env_vars () =
  with_env "DISTAL_SERVE_QUEUE" "17" (fun () ->
      Alcotest.(check (option int)) "queue parses" (Some 17) (Env.serve_queue ()));
  with_env "DISTAL_SERVE_QUEUE" "" (fun () ->
      Alcotest.(check (option int)) "blank is unset" None (Env.serve_queue ()));
  with_env "DISTAL_SERVE_BATCH_WINDOW" "0.25" (fun () ->
      Alcotest.(check (option (float 0.0))) "window parses" (Some 0.25)
        (Env.serve_batch_window ()));
  with_env "DISTAL_SERVE_BATCH_WINDOW" "0" (fun () ->
      Alcotest.(check (option (float 0.0))) "zero window is valid" (Some 0.0)
        (Env.serve_batch_window ()));
  with_env "DISTAL_SERVE_CACHE" "0" (fun () ->
      Alcotest.(check (option int)) "cache 0 (disabled) is valid" (Some 0)
        (Env.serve_cache ()));
  (* Malformed values raise, naming the variable. *)
  List.iter
    (fun (name, value, read) ->
      with_env name value (fun () ->
          match read () with
          | _ -> Alcotest.failf "%s=%S must raise" name value
          | exception Invalid_argument msg ->
              if not (Astring_contains.contains msg name) then
                Alcotest.failf "error for %s does not name the variable: %s" name msg))
    [
      ("DISTAL_SERVE_QUEUE", "zero", fun () -> ignore (Env.serve_queue ()));
      ("DISTAL_SERVE_QUEUE", "0", fun () -> ignore (Env.serve_queue ()));
      ("DISTAL_SERVE_QUEUE", "-3", fun () -> ignore (Env.serve_queue ()));
      ("DISTAL_SERVE_BATCH_WINDOW", "-0.1", fun () -> ignore (Env.serve_batch_window ()));
      ("DISTAL_SERVE_BATCH_WINDOW", "soon", fun () -> ignore (Env.serve_batch_window ()));
      ("DISTAL_SERVE_CACHE", "-1", fun () -> ignore (Env.serve_cache ()));
      ("DISTAL_SERVE_CACHE", "many", fun () -> ignore (Env.serve_cache ()));
    ]

(* {2 distald end to end}

   These tests drive the real server binary (built as a test dependency)
   over a real Unix-domain socket: Unix.create_process rather than fork,
   because the test runner may already have spawned pool domains. *)

let distald_exe = "../bin/distald.exe"

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
  with_server ~args:[ "--batch-window"; "0.001" ] (fun socket pid ->
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

(* Same-shape requests inside one window share a compile: with a wide
   window and two raw submits in flight before the flush, the second
   reply must report a batch of 2 and identical bytes. *)
let test_server_batching () =
  with_server ~args:[ "--batch-window"; "0.4" ] (fun socket pid ->
      let c1 = Client.connect_exn socket in
      let c2 = Client.connect_exn socket in
      let s1 = gemm_submit ~id:(Client.fresh_id c1) () in
      let s2 = { s1 with Protocol.id = 100 } in
      (match (Client.send c1 (Protocol.Submit s1), Client.send c2 (Protocol.Submit s2)) with
      | Ok (), Ok () -> ()
      | _ -> Alcotest.fail "send failed");
      let r1 =
        match Client.recv c1 with
        | Ok (Protocol.Result r) -> r
        | _ -> Alcotest.fail "expected a result for client 1"
      in
      let r2 =
        match Client.recv c2 with
        | Ok (Protocol.Result r) -> r
        | _ -> Alcotest.fail "expected a result for client 2"
      in
      Alcotest.(check int) "one batch of two" 2 r1.Protocol.batch;
      Alcotest.(check int) "both members counted" 2 r2.Protocol.batch;
      Alcotest.(check (list int64)) "batch-mates identical"
        (bits r1.Protocol.output) (bits r2.Protocol.output);
      Alcotest.(check bool) "second member replays the first's run" true
        r2.Protocol.result_cached;
      stop_server c1 pid;
      Client.close c1;
      Client.close c2)

let test_server_admission () =
  with_server ~args:[ "--queue"; "1"; "--batch-window"; "3" ] (fun socket pid ->
      let c1 = Client.connect_exn socket in
      let c2 = Client.connect_exn socket in
      let s1 = gemm_submit ~id:(Client.fresh_id c1) () in
      (match Client.send c1 (Protocol.Submit s1) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send failed: %s" e);
      (* Wait until the first submit occupies the queue slot. *)
      let rec wait_depth tries =
        match Client.stats c2 with
        | Ok (1, _, _) -> ()
        | Ok _ when tries > 0 ->
            ignore (Unix.select [] [] [] 0.02);
            wait_depth (tries - 1)
        | Ok (d, _, _) -> Alcotest.failf "queue depth stuck at %d" d
        | Error e -> Alcotest.failf "stats failed: %s" e
      in
      wait_depth 100;
      (* The bound is hit: the next submit is rejected, with a hint. *)
      (match Client.submit c2 (gemm_submit ~id:(Client.fresh_id c2) ()) with
      | Ok (Client.Rejected { retry_after_s; reason }) ->
          Alcotest.(check bool) "positive retry-after" true (retry_after_s > 0.0);
          Alcotest.(check bool) "reason mentions the queue" true
            (Astring_contains.contains reason "queue")
      | Ok _ -> Alcotest.fail "expected an admission rejection"
      | Error e -> Alcotest.failf "transport error: %s" e);
      (* Shutdown drains: the queued request is still answered. *)
      (match Client.shutdown c2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "shutdown failed: %s" e);
      let r1 =
        match Client.recv c1 with
        | Ok (Protocol.Result r) -> r
        | _ -> Alcotest.fail "queued request must be served on shutdown"
      in
      Alcotest.(check (pair (list int64) string)) "drained result bytes"
        (submit_expected s1)
        (bits r1.Protocol.output, Stats.to_string r1.Protocol.stats);
      wait_server pid;
      Client.close c1;
      Client.close c2)

(* Clients killed mid-request leak nothing: a queued submit whose client
   vanishes is discarded (its admission slot freed), and a half-written
   frame followed by EOF just drops that client. *)
let test_server_client_killed () =
  with_server ~args:[ "--queue"; "1"; "--batch-window"; "0.25" ] (fun socket pid ->
      let c1 = Client.connect_exn socket in
      let s1 = gemm_submit ~id:(Client.fresh_id c1) () in
      (match Client.send c1 (Protocol.Submit s1) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send failed: %s" e);
      ignore (Unix.select [] [] [] 0.05);
      (* The client dies with its request still queued. *)
      Client.close c1;
      (* A second client dies mid-frame: header promised more bytes than
         were ever written. *)
      let c2 = Client.connect_exn socket in
      let frame = Wire.encode (Protocol.encode_client (Protocol.Submit s1)) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      ignore (Unix.write_substring fd frame 0 (String.length frame / 2));
      ignore (Unix.select [] [] [] 0.05);
      Unix.close fd;
      (* The slot freed by the dead client admits new work; the server is
         alive and the queue empty once the dust settles. *)
      let rec wait_empty tries =
        match Client.stats c2 with
        | Ok (0, _, _) -> ()
        | Ok _ when tries > 0 ->
            ignore (Unix.select [] [] [] 0.02);
            wait_empty (tries - 1)
        | Ok (d, _, _) -> Alcotest.failf "dead client's slot leaked (depth %d)" d
        | Error e -> Alcotest.failf "stats failed: %s" e
      in
      wait_empty 100;
      let s2 = gemm_submit ~id:(Client.fresh_id c2) () in
      let r = expect_result (Client.submit_wait c2 s2) in
      Alcotest.(check (pair (list int64) string)) "served after client kills"
        (submit_expected s2)
        (bits r.Protocol.output, Stats.to_string r.Protocol.stats);
      stop_server c2 pid;
      Client.close c2)

(* SIGKILL mid-batch, restart on the same socket: the restarted server
   has cold caches and no state to recover, yet serves bit-identical
   results — recompile-on-miss is the whole recovery story. *)
let test_server_killed_and_restarted () =
  let socket = socket_path () in
  let pid = spawn_server ~args:[ "--batch-window"; "10" ] socket in
  let c1 = Client.connect_exn socket in
  let s1 = gemm_submit ~id:(Client.fresh_id c1) () in
  (match Client.send c1 (Protocol.Submit s1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send failed: %s" e);
  (* Confirm the request is queued (mid-batch), then kill -9. *)
  let c2 = Client.connect_exn socket in
  let rec wait_depth tries =
    match Client.stats c2 with
    | Ok (1, _, _) -> ()
    | Ok _ when tries > 0 ->
        ignore (Unix.select [] [] [] 0.02);
        wait_depth (tries - 1)
    | Ok (d, _, _) -> Alcotest.failf "queue depth stuck at %d" d
    | Error e -> Alcotest.failf "stats failed: %s" e
  in
  wait_depth 100;
  kill_server pid;
  (* The killed server takes the in-flight request down with it. *)
  (match Client.recv c1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a SIGKILLed server cannot have answered");
  Client.close c1;
  Client.close c2;
  (* Restart on the same path; the stale socket file is replaced. *)
  let pid2 = spawn_server ~args:[ "--batch-window"; "0.001" ] socket in
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
   requests whose replies together exceed one maximum frame (7 outputs
   of 1024x1024, over 11 MB each as base64) before reading any of them
   still gets every reply, whole and in order. *)
let test_server_pipelined_large_replies () =
  let n = 1024 and k = 7 in
  Alcotest.(check bool) "replies exceed one frame" true (k * (8 * n * n * 4 / 3) > Wire.max_frame);
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
   (its socket took none of a 2.8 MB reply), and the server carries on. *)
let test_server_drops_stalled_client () =
  with_server ~args:[ "--stall-timeout"; "0.2" ] (fun socket _pid ->
      let stalled = Client.connect_exn socket in
      (match Client.send stalled (Protocol.Submit (copy_submit ~id:0 ~n:512)) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" e);
      let c = Client.connect_exn socket in
      let stalled_count () =
        match Client.stats c with
        | Ok (_, _, Json.Obj kvs) -> (
            match List.assoc_opt "serve.stalled_clients" kvs with
            | Some (Json.Obj m) -> (
                match List.assoc_opt "value" m with Some (Json.Float v) -> v | _ -> 0.0)
            | _ -> 0.0)
        | Ok _ -> Alcotest.fail "stats reply without metrics"
        | Error e -> Alcotest.failf "stats: %s" e
      in
      let rec wait tries =
        if stalled_count () < 1.0 then
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
  with_server ~args:[ "--batch-window"; "0.001" ] (fun socket pid ->
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
  with_server ~args:[ "--batch-window"; "0.001" ] (fun socket pid ->
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

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
        Alcotest.test_case "lru capacity zero" `Quick test_lru_capacity_zero;
        Alcotest.test_case "lru find_or_add" `Quick test_lru_find_or_add;
        Alcotest.test_case "lru promote keeps MRU hits cheap and ordered" `Quick
          test_lru_promote_mru;
        QCheck_alcotest.to_alcotest qcheck_lru_model;
        Alcotest.test_case "request fingerprint" `Quick test_fingerprint;
        Alcotest.test_case "session byte identity" `Quick test_session_identity;
        Alcotest.test_case "session defensive copies" `Quick test_session_defensive_copies;
        Alcotest.test_case "session explicit data keys" `Quick test_session_explicit_data_key;
        Alcotest.test_case "session eviction" `Quick test_session_eviction;
        Alcotest.test_case "session cache off" `Quick test_session_cache_off;
        Alcotest.test_case "session result size cap" `Quick test_session_result_size_cap;
        Alcotest.test_case "session model builds no inputs" `Quick test_session_model_no_inputs;
        Alcotest.test_case "session concurrent lanes" `Quick test_session_concurrent;
        Test_fuzz.to_alcotest qcheck_serve_identity;
        Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "wire bad headers" `Quick test_wire_bad_header;
        Alcotest.test_case "wire over a socketpair" `Quick test_wire_socketpair;
        Alcotest.test_case "protocol client roundtrip" `Quick test_protocol_client_roundtrip;
        Alcotest.test_case "protocol server roundtrip" `Quick test_protocol_server_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_output_bits_exact;
        Alcotest.test_case "protocol output payloads" `Quick test_protocol_output_payloads;
        Alcotest.test_case "DISTAL_SERVE_* parsing" `Quick test_env_vars;
        Alcotest.test_case "distald end to end" `Quick test_server_end_to_end;
        Alcotest.test_case "distald batching" `Quick test_server_batching;
        Alcotest.test_case "distald admission control" `Quick test_server_admission;
        Alcotest.test_case "distald client killed mid-request" `Quick test_server_client_killed;
        Alcotest.test_case "distald killed mid-batch and restarted" `Quick
          test_server_killed_and_restarted;
        Alcotest.test_case "distald faulted request" `Quick test_server_faulted_request;
        Alcotest.test_case "distald fails bad extents and keeps serving" `Quick
          test_server_bad_extents;
        Alcotest.test_case "distald slow reader stalls only itself" `Quick
          test_server_slow_reader;
        Alcotest.test_case "distald pipelined replies above one frame" `Quick
          test_server_pipelined_large_replies;
        Alcotest.test_case "distald drops a stalled client" `Quick
          test_server_drops_stalled_client;
      ] );
  ]
