(* The traced half of the benchmark: the workload's request stream served
   in-process, through the same codec and Session.run that distald runs,
   with every layer timed from here by calling its public function.

   Two passes over the same stream, each on a fresh session sized like
   distald's, and both timestamp the codec and Session.run in place.
   After each request the traced pass uses its plan_cached /
   result_cached flags to re-time exactly the layers Session.run went
   through (parse ... lower on a plan miss, inputs + plan + replay or
   simulate on a result miss, the output copy) and records spans. That
   work happens between requests, outside their root spans; whatever it
   still costs the requests (GC, caches) is the trace overhead, the ratio
   of the two passes' medians. Layers a workload never runs are timed on
   probe requests so that every per-call metric is a measurement. *)

module Api = Distal.Api
module Exec = Api.Exec
module Session = Distal_serve.Session
module Protocol = Distal_serve.Protocol
module Dense = Distal_tensor.Dense
module Kernel_registry = Distal_tensor.Kernel_registry
module Ir = Distal_ir
module Machine = Distal_machine
module Obs = Distal_obs
module W = Workloads

open Measure

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* {2 Samples} *)

(* Per sample key: values from requests of the measured stream, and
   values from warm-up or probe calls (used only when the stream never
   exercised the layer). *)
type samples = { mutable calls : float list; mutable probes : float list }

type t = {
  samples : (string, samples) Hashtbl.t;
  sink : Obs.Event.sink;
  origin : float;
  mutable roots : float list;  (** in-process end to end, traced pass *)
}

let record t ~exercised key v =
  let s =
    match Hashtbl.find_opt t.samples key with
    | Some s -> s
    | None ->
        let s = { calls = []; probes = [] } in
        Hashtbl.add t.samples key s;
        s
  in
  if exercised then s.calls <- v :: s.calls else s.probes <- v :: s.probes

let calls t key = match Hashtbl.find_opt t.samples key with Some s -> s.calls | None -> []

let values t key =
  match Hashtbl.find_opt t.samples key with
  | Some { calls = _ :: _ as c; _ } -> c
  | Some { probes; _ } -> probes
  | None -> []

(* The layers whose exercised time adds up to the in-process end to end:
   the codec around Session.run, and what Session.run does inside. *)
let partition =
  [
    "protocol.decode_submit";
    "api.fingerprint";
    "ir.parse";
    "ir.typecheck";
    "ir.cin";
    "ir.rewrite";
    "ir.lower";
    "api.random_inputs";
    "exec.plan";
    "exec.replay";
    "exec.simulate";
    "session.copy";
    "protocol.encode_reply";
    "protocol.decode_reply";
  ]

(* {2 Layer re-timing} *)

(* Times a call, records it under a layer name and appends (layer,
   seconds) to [order]. *)
type timer = { timed : 'a. string -> (unit -> 'a) -> 'a }

let timer t ~exercised order =
  {
    timed =
      (fun name f ->
        let r, dt = time f in
        record t ~exercised name dt;
        order := (name, dt) :: !order;
        r);
  }

let shapes_of (req : Api.request) =
  List.map (fun (t : Api.tensor) -> (t.Api.name, t.Api.shape)) req.Api.req_tensors

let retime_compile t ~exercised { timed } (req : Api.request) =
  let stmt, cmds =
    timed "ir.parse" (fun () ->
        (Ir.Einsum_parser.parse req.Api.req_stmt, Ir.Schedule.parse req.Api.req_schedule))
  in
  let stmt = ok "parse" stmt and cmds = ok "schedule" cmds in
  let shapes = shapes_of req in
  ignore (ok "typecheck" (timed "ir.typecheck" (fun () -> Ir.Typecheck.check stmt ~shapes)));
  let cin = ok "cin" (timed "ir.cin" (fun () -> Ir.Cin.of_stmt stmt ~shapes)) in
  let cin = ok "rewrite" (timed "ir.rewrite" (fun () -> Ir.Schedule.apply_all cin cmds)) in
  let program = ok "lower" (timed "ir.lower" (fun () -> Ir.Lower.lower cin ~shapes)) in
  record t ~exercised "ir.taskir_bytes"
    (float_of_int (Obj.reachable_words (Obj.repr program) * (Sys.word_size / 8)))

let retime_replay t ~exercised { timed } ep data =
  let allocs0 = (Exec.plan_pool_stats ep).Distal_support.Buf_pool.allocs in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
  let r = ok "run_plan" (timed "exec.replay" (fun () -> Exec.run_plan ep ~data)) in
  let words =
    Gc.minor_words () -. minor0 +. ((Gc.quick_stat ()).Gc.major_words -. major0)
  in
  record t ~exercised "exec.replay_alloc_words" words;
  record t ~exercised "exec.pool_allocs"
    (float_of_int ((Exec.plan_pool_stats ep).Distal_support.Buf_pool.allocs - allocs0));
  r

(* Composite timings of the plan tier on a side session: a miss compiles
   from scratch, a hit is fingerprint plus lookup. *)
let retime_plan_tier t ~exercised ~side ~plan_cached req =
  if not plan_cached then begin
    Session.clear side;
    let _, dt = time (fun () -> Session.compile side req) in
    record t ~exercised "session.compile_miss" dt
  end
  else ignore (Session.compile side req);
  let _, dt = time (fun () -> Session.compile side req) in
  record t ~exercised:(exercised && plan_cached) "session.compile_hit" dt

(* {2 One request} *)

type served = {
  req : Api.request;
  outcome : Session.outcome;
  stamps : float array;  (** decode_submit | Session.run | encode | decode boundaries *)
  reply : string;
}

let serve session ~k (r : W.request) =
  let payload = Protocol.encode_client (Protocol.Submit (W.submit ~id:k r)) in
  let t0 = now () in
  let s =
    match Protocol.decode_client payload with
    | Ok (Protocol.Submit s) -> s
    | _ -> failwith "submit did not decode"
  in
  let req = ok "to_request" (Protocol.to_request s) in
  let t1 = now () in
  let outcome =
    ok "Session.run" (Session.run ~mode:s.Protocol.mode ~seed:s.Protocol.seed session req)
  in
  let t2 = now () in
  let reply =
    Protocol.encode_server
      (Protocol.Result
         {
           rid = k;
           plan_cached = outcome.Session.plan_cached;
           result_cached = outcome.Session.result_cached;
           batch = 1;
           stats = outcome.Session.result.Exec.stats;
           output = outcome.Session.result.Exec.output;
         })
  in
  let t3 = now () in
  ignore (ok "decode reply" (Protocol.decode_server reply));
  let t4 = now () in
  { req; outcome; stamps = [| t0; t1; t2; t3; t4 |]; reply }

(* Record the in-place codec spans of a served request and re-time what
   Session.run did inside. Returns the re-timed (layer, seconds) list in
   call order. *)
let attribute t ~exercised ~session ~side (r : W.request) sv =
  let st = sv.stamps and o = sv.outcome in
  let span i = st.(i + 1) -. st.(i) in
  record t ~exercised "protocol.decode_submit" (span 0);
  record t ~exercised "session.run" (span 1);
  record t ~exercised "protocol.encode_reply" (span 2);
  record t ~exercised "protocol.decode_reply" (span 3);
  record t ~exercised "protocol.reply_bytes" (float_of_int (String.length sv.reply));
  let stats = o.Session.result.Exec.stats in
  record t ~exercised "exec.tasks" (float_of_int stats.Api.Stats.tasks);
  record t ~exercised "exec.messages" (float_of_int stats.Api.Stats.messages);
  let order = ref [] in
  let timer = timer t ~exercised order in
  let timed = timer.timed in
  let req = sv.req in
  (* Session.compile and Session.run each fingerprint the request. *)
  for _ = 1 to 2 do
    ignore (timed "api.fingerprint" (fun () -> Api.request_fingerprint req))
  done;
  if not o.Session.plan_cached then retime_compile t ~exercised timer req;
  retime_plan_tier t ~exercised ~side ~plan_cached:o.Session.plan_cached req;
  let plan, _ = Session.compile_exn session req in
  let copy () =
    Option.iter
      (fun d -> ignore (timed "session.copy" (fun () -> Dense.copy d)))
      o.Session.result.Exec.output
  in
  if not o.Session.result_cached then begin
    let data = timed "api.random_inputs" (fun () -> Api.random_inputs ~seed:r.W.seed plan) in
    (match r.W.shape.W.mode with
    | Exec.Full ->
        let ep = Api.eplan_exn plan in
        (* The executable plan is built lazily by the first Full run of a
           plan object, so one completed run means this request built it. *)
        if Exec.plan_runs ep = 1 then begin
          let fresh = Api.compile_request_exn req in
          ignore (timed "exec.plan" (fun () -> Api.eplan_exn fresh))
        end;
        ignore (retime_replay t ~exercised timer ep data)
    | Exec.Model -> ignore (timed "exec.simulate" (fun () -> Api.estimate plan)));
    (* The result cache stores its own copy of a fresh output. *)
    copy ()
  end
  else copy ();
  List.rev !order

(* {2 Probes for layers the stream never ran} *)

let plan_of (r : W.request) =
  Api.compile_request_exn (ok "to_request" (Protocol.to_request (W.submit ~id:0 r)))

let probe_simulate t r =
  let plan = plan_of r in
  let _, dt = time (fun () -> Api.estimate plan) in
  record t ~exercised:false "exec.simulate" dt

let probe_full t (r : W.request) =
  let timer = timer t ~exercised:false (ref []) in
  let timed = timer.timed in
  let plan = plan_of r in
  let data = timed "api.random_inputs" (fun () -> Api.random_inputs ~seed:r.W.seed plan) in
  let ep = timed "exec.plan" (fun () -> Api.eplan_exn plan) in
  let res = retime_replay t ~exercised:false timer ep data in
  Option.iter (fun d -> ignore (timed "session.copy" (fun () -> Dense.copy d))) res.Exec.output

(* Replay scaling: run_plan at 1 domain against all host cores, scored
   against the core count. *)
let parallel_efficiency requests =
  let nproc = Domain.recommended_domain_count () in
  let t1 = ref 0.0 and tn = ref 0.0 in
  List.iter
    (fun r ->
      let plan = plan_of r in
      let ep = Api.eplan_exn plan and data = Api.random_inputs ~seed:r.W.seed plan in
      let run domains () = ignore (ok "run_plan" (Exec.run_plan ~domains ep ~data)) in
      run 1 ();
      run nproc ();
      let med domains = median (List.init 5 (fun _ -> snd (time (run domains)))) in
      t1 := !t1 +. med 1;
      tn := !tn +. med nproc)
    requests;
  !t1 /. !tn /. float_of_int nproc

(* The tile of replay's SUMMA leaf (n=128 on 2x2, k chunk 16):
   A(64x64) += B(64x16) * C(16x64), timed on the tiled kernel against the
   calibrated cost model's prediction for the same tile. *)
let leaf () =
  let rng = Distal_support.Rng.create 7 in
  let m = 64 and n = 64 and k = 16 in
  let a = Dense.create [| m; n |] in
  let b = Dense.random rng [| m; k |] and c = Dense.random rng [| k; n |] in
  let batch = 20 in
  let run () =
    for _ = 1 to batch do
      Kernel_registry.run_named Kernel_registry.Tiled ~kernel:"gemm" [ a; b; c ]
    done
  in
  run ();
  let measured =
    median (List.init 50 (fun _ -> snd (time run))) /. float_of_int batch
  in
  let cost = Machine.Calibrate.calibrated Machine.Cost_model.cpu_distal in
  let predicted =
    Machine.Cost_model.leaf_compute_time cost ~kernel:"gemm"
      ~flops:(Kernel_registry.flops ~kernel:"gemm" ~dims:[| m; n; k |])
      ~bytes_touched:(8.0 *. float_of_int ((m * n) + (m * k) + (k * n)))
  in
  (measured, predicted)

(* {2 The passes} *)

type result = {
  ledger : t;
  untraced_roots : float list;  (** in-process end to end, untraced copy *)
  parallel_efficiency : float;
}

let fresh_session () =
  Session.create ~plan_cache:Session.default_plan_capacity
    ~result_cache:Session.default_result_capacity ()

let root sv = sv.stamps.(4) -. sv.stamps.(0)

let record_spans t ~k (r : W.request) sv layers =
  let st = sv.stamps in
  let span ~tid ~name ~cat ~ts ~dur attrs =
    Obs.Span.complete t.sink ~name ~cat ~pid:1 ~tid ~ts:(ts -. t.origin) ~dur
      ~attrs:(("request", Obs.Event.Int k) :: attrs) ()
  in
  span ~tid:1 ~name:r.W.shape.W.label ~cat:"request" ~ts:st.(0) ~dur:(root sv)
    [
      ("plan_cached", Obs.Event.Bool sv.outcome.Session.plan_cached);
      ("result_cached", Obs.Event.Bool sv.outcome.Session.result_cached);
    ];
  List.iteri
    (fun i name -> span ~tid:1 ~name ~cat:"layer" ~ts:st.(i) ~dur:(st.(i + 1) -. st.(i)) [])
    [ "protocol.decode_submit"; "session.run"; "protocol.encode_reply"; "protocol.decode_reply" ];
  (* Re-timed layers are laid end to end from the start of Session.run. *)
  ignore
    (List.fold_left
       (fun ts (name, dur) ->
         span ~tid:2 ~name ~cat:"layer" ~ts ~dur [ ("retimed", Obs.Event.Bool true) ];
         ts +. dur)
       st.(1) layers)

(* The untraced and traced passes run side by side, one request of each
   in turn on their own sessions, so neither pass sees a warmer process
   or a quieter host than the other. *)
let run ~workload ~seed ~requests =
  let plain = W.make workload seed and w = W.make workload seed in
  let t =
    { samples = Hashtbl.create 64; sink = Obs.Event.sink (); origin = now (); roots = [] }
  in
  let untraced = fresh_session () and session = fresh_session () and side = fresh_session () in
  List.iteri (fun k r -> ignore (serve untraced ~k r)) plain.W.warmup;
  List.iteri
    (fun k r -> ignore (attribute t ~exercised:false ~session ~side r (serve session ~k r)))
    w.W.warmup;
  Obs.Span.process_name t.sink ~pid:1 "ledger";
  Obs.Span.thread_name t.sink ~pid:1 ~tid:1 "request (in place)";
  Obs.Span.thread_name t.sink ~pid:1 ~tid:2 "Session.run layers (re-timed)";
  let untraced_roots =
    List.init requests (fun k ->
        let plain_root = root (serve untraced ~k (plain.W.next ())) in
        let r = w.W.next () in
        let sv = serve session ~k r in
        t.roots <- root sv :: t.roots;
        record_spans t ~k r sv (attribute t ~exercised:true ~session ~side r sv);
        plain_root)
  in
  let full = List.filter W.full w.W.warmup in
  let probe_requests =
    if full <> [] then full
    else
      List.map (fun shape -> { W.shape; seed = W.seed_base seed }) (Array.to_list W.replay_shapes)
  in
  if values t "exec.simulate" = [] then List.iter (probe_simulate t) w.W.warmup;
  if values t "exec.replay" = [] then List.iter (probe_full t) probe_requests;
  { ledger = t; untraced_roots; parallel_efficiency = parallel_efficiency probe_requests }
