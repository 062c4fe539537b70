(* The untraced half of the benchmark: a real distald, driven over its
   socket by a closed loop.

   The daemon runs with its default flags apart from --socket and
   --quiet, and with every DISTAL_* variable removed from its
   environment, so the numbers describe the shipped configuration. Each
   client is its own domain holding one blocking connection: distald
   writes replies with blocking calls, so one thread multiplexing several
   connections could stall it. *)

module Api = Distal.Api
module Client = Distal_serve.Client
module Protocol = Distal_serve.Protocol
module Dense = Distal_tensor.Dense
module Json = Distal_support.Json
module W = Workloads

let now = Measure.now

(* {2 The daemon} *)

type daemon = { pid : int; dir : string; socket : string }

let live = ref []

(* Wait for a daemon to exit and remove its socket directory. *)
let reap d =
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Sys.remove d.socket with Sys_error _ -> ());
  try Unix.rmdir d.dir with Unix.Unix_error _ -> ()

let kill d = try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()

(* No daemon outlives the benchmark, whichever way it exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          kill d;
          reap d)
        !live);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

let scrubbed_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"DISTAL_" kv))
  |> Array.of_list

let spawn_count = ref 0

(* The socket lives in a fresh directory under [root], addressed by a
   relative path: a Unix socket path is limited to about 100 bytes,
   however deep the checkout is. *)
let spawn ~distald ~root =
  incr spawn_count;
  let dir = Filename.concat root (Printf.sprintf "d%d-%d" (Unix.getpid ()) !spawn_count) in
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "sock" in
  let pid =
    Unix.create_process_env distald
      [| distald; "--socket"; socket; "--quiet" |]
      (scrubbed_env ()) Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; dir; socket } in
  live := d :: !live;
  d

let connect d =
  match Client.connect ~retries:10_000 ~retry_interval:0.001 d.socket with
  | Ok c -> c
  | Error e -> failwith ("distald did not come up: " ^ e)

(* VmHWM: the daemon's peak resident set, in MiB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let stop d c =
  (match Client.shutdown c with Ok () -> () | Error _ -> kill d);
  Client.close c;
  reap d

(* The daemon's metrics registry, from its stats reply. *)
let stats c = match Client.stats c with Ok (_, _, m) -> m | Error e -> failwith e

(* One field of one instrument: "value" of a counter, "sum" or "count"
   of a histogram. *)
let stat m name field =
  match Option.bind (Json.member name m) (Json.member field) with
  | Some v -> Option.value (Json.to_float v) ~default:0.0
  | None -> 0.0

(* {2 Set-up}

   One cold start: spawn, connect (polling every millisecond) and send
   the workload's warm-up requests in order. *)

let cold_start ~distald ~root (w : W.t) =
  let t0 = now () in
  let d = spawn ~distald ~root in
  let c = connect d in
  List.iteri
    (fun k r ->
      match Client.submit_wait c (W.submit ~id:k r) with
      | Ok (Client.Ok_result _) -> ()
      | Ok (Client.Rejected { reason; _ } | Client.Failed reason) | Error reason ->
          failwith ("warm-up request failed: " ^ reason))
    w.W.warmup;
  (d, c, now () -. t0)

(* {2 The closed loop} *)

type sample = { index : int; req : W.request; reply : Protocol.reply }

type window = {
  latencies : float list;  (** seconds, successful requests *)
  attempted : int;
  failed : int;
  elapsed : float;
  samples : sample list;  (** replies kept for the oracle *)
  errors : string list;
}

(* One reply in 16 is kept for the oracle, at an offset that rotates
   from one block of 16 to the next so that a periodic stream (replay
   cycles 4 shapes) is sampled across all its shapes. *)
let sampled i = i mod 16 = i / 16 mod 16

let run_window ~clients ~seconds d (w : W.t) =
  let m = Mutex.create () in
  let next_index = ref 0 in
  let take () =
    Mutex.protect m (fun () ->
        let i = !next_index in
        incr next_index;
        (i, w.W.next ()))
  in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let client () =
    let c = connect d in
    let lat = ref [] and failed = ref 0 and kept = ref [] and errors = ref [] in
    let last = ref t0 and stop = ref false in
    while (not !stop) && now () < deadline do
      let i, r = take () in
      let a = now () in
      let res = Client.submit_wait c (W.submit ~id:i r) in
      let b = now () in
      last := b;
      match res with
      | Ok (Client.Ok_result reply) ->
          lat := (b -. a) :: !lat;
          if sampled i then kept := { index = i; req = r; reply } :: !kept
      | Ok (Client.Rejected { reason; _ }) | Ok (Client.Failed reason) ->
          incr failed;
          errors := reason :: !errors
      | Error reason ->
          (* The connection is gone: stop this client. *)
          incr failed;
          errors := reason :: !errors;
          stop := true
    done;
    Client.close c;
    (!lat, !failed, !kept, !errors, !last)
  in
  let results = List.map Domain.join (List.init clients (fun _ -> Domain.spawn client)) in
  let lat = List.concat_map (fun (l, _, _, _, _) -> l) results in
  let failed = List.fold_left (fun a (_, f, _, _, _) -> a + f) 0 results in
  {
    latencies = lat;
    attempted = List.length lat + failed;
    failed;
    elapsed = List.fold_left (fun a (_, _, _, _, l) -> Float.max a (l -. t0)) 0.0 results;
    samples =
      List.sort (fun a b -> compare a.index b.index)
        (List.concat_map (fun (_, _, k, _, _) -> k) results);
    errors = List.concat_map (fun (_, _, _, e, _) -> e) results;
  }

(* {2 The oracle}

   Run after the window, so it never slows the loop. Every sampled
   reply's modeled time must equal the in-process Api.estimate bit for
   bit. A sampled Full reply must also match Exec.serial_reference on the
   same seeded inputs, within the tolerance Api.validate uses. The serial
   interpreter costs about 0.3 us per iteration point, so output checks
   stop once they have spent [point_budget] points (the first one always
   runs); which replies are checked depends only on the stream. *)

let point_budget = 1e7

type verdict = { checked : int; outputs_checked : int; wrong : int }

let check_samples samples =
  let plans = Hashtbl.create 16 and expected = Hashtbl.create 16 in
  let compiled (r : W.request) =
    match Hashtbl.find_opt plans r.W.shape.W.label with
    | Some p -> p
    | None ->
        let plan =
          Api.compile_request_exn (Result.get_ok (Protocol.to_request (W.submit ~id:0 r)))
        in
        let p = (plan, (Api.estimate plan).Api.Stats.time) in
        Hashtbl.add plans r.W.shape.W.label p;
        p
  in
  let spent = ref 0.0 and outputs = ref 0 in
  let wrong (s : sample) =
    let plan, time = compiled s.req in
    let time_ok =
      Int64.equal
        (Int64.bits_of_float s.reply.Protocol.stats.Api.Stats.time)
        (Int64.bits_of_float time)
    in
    let shapes = List.map (fun t -> (t.Api.name, t.Api.shape)) plan.Api.problem.Api.tensors in
    let stmt = plan.Api.problem.Api.stmt in
    let output_ok =
      match (s.req.W.shape.W.mode, s.reply.Protocol.output) with
      | Api.Exec.Model, None -> true
      | Api.Exec.Full, Some _ when !outputs > 0 && !spent >= point_budget -> true
      | Api.Exec.Full, Some got ->
          let key = (s.req.W.shape.W.label, s.req.W.seed) in
          let want =
            match Hashtbl.find_opt expected key with
            | Some e -> e
            | None ->
                let data = Api.random_inputs ~seed:s.req.W.seed plan in
                let e = Api.Exec.serial_reference stmt ~shapes ~data in
                Hashtbl.add expected key e;
                spent :=
                  !spent
                  +. List.fold_left
                       (fun acc (_, n) -> acc *. float_of_int n)
                       1.0
                       (Distal_ir.Typecheck.check_exn stmt ~shapes);
                e
          in
          incr outputs;
          Dense.approx_equal ~tol:1e-7 got want
      | _ -> false
    in
    if not (time_ok && output_ok) then
      Printf.eprintf "ledger: wrong reply to request %d (%s, seed %d):%s%s\n%!" s.index
        s.req.W.shape.W.label s.req.W.seed
        (if time_ok then "" else " modeled time differs from Api.estimate")
        (if output_ok then "" else " output differs from the serial reference");
    not (time_ok && output_ok)
  in
  let wrong = List.length (List.filter wrong samples) in
  { checked = List.length samples; outputs_checked = !outputs; wrong }
