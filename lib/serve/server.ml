(* The distald server engine: a select-driven loop over a Unix-domain
   socket serving concurrent clients from one shared session (one plan
   cache, one result cache, one executor domain pool).

   Requests are not served on arrival. A submit is admitted into a
   bounded queue (or rejected with a retry-after once the bound is hit —
   overload degrades into explicit backpressure instead of piling up),
   and the queue is flushed once its oldest entry has waited out the
   batching window. A flush groups the queue by plan fingerprint, so K
   same-shape requests that arrived within one window cost one compile
   plus K runs (and, for byte-identical requests, one run plus K-1
   result-cache replays). Stats and shutdown messages bypass the queue.

   Replies never block the loop. Client sockets are non-blocking; a reply
   is framed into the client's outbox and written as far as the kernel
   takes it, and the rest goes out whenever select reports the socket
   writable. A client that stops reading (or one thread multiplexing
   several connections) therefore stalls only itself. While a client's
   outbox is non-empty its socket is not read, so it cannot queue more
   work than it takes replies for (pushback, not disconnection): its
   outbox holds at most the replies to requests it sent before the
   outbox filled. Only a client whose socket has taken no bytes for
   stall_timeout seconds while replies wait is dropped.

   Clients that die mid-request are detected as EOF (possibly inside a
   frame) or as a failed reply write; either way their queue entries are
   discarded and their admission slots freed — a killed client never
   wedges the server or leaks capacity. The server keeps no durable
   state: a killed-and-restarted distald starts with cold caches and
   recompiles on miss, reproducing identical results (the simulator is
   deterministic), which is the checkpoint-free recovery story the
   robustness tests exercise. *)

module Api = Distal.Api
module Obs = Distal_obs
module Wire = Distal_support.Wire
module Env = Distal_support.Env

type config = {
  socket_path : string;
  queue_limit : int;
  batch_window : float;
  plan_cache : int;
  result_cache : int;
  domains : int option;
  stall_timeout : float;
  quiet : bool;
}

let default_queue_limit = 64
let default_batch_window = 0.002
let default_stall_timeout = 30.0

let config ?queue_limit ?batch_window ?plan_cache ?result_cache ?domains
    ?(stall_timeout = default_stall_timeout) ?(quiet = false) ~socket_path () =
  let pick opt env default = match opt with Some v -> v | None -> Option.value (env ()) ~default in
  let queue_limit = pick queue_limit Env.serve_queue default_queue_limit in
  let batch_window = pick batch_window Env.serve_batch_window default_batch_window in
  let plan_cache = pick plan_cache Env.serve_cache Session.default_plan_capacity in
  let result_cache =
    match result_cache with
    | Some c -> c
    | None -> if plan_cache = 0 then 0 else Session.default_result_capacity
  in
  if queue_limit < 1 then invalid_arg "Server.config: queue_limit must be >= 1";
  if not (Float.is_finite batch_window) || batch_window < 0.0 then
    invalid_arg "Server.config: batch_window must be >= 0";
  if not (stall_timeout > 0.0) then invalid_arg "Server.config: stall_timeout must be > 0";
  {
    socket_path;
    queue_limit;
    batch_window;
    plan_cache;
    result_cache;
    domains;
    stall_timeout;
    quiet;
  }

type client = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  buf : Bytes.t;
  out : string Queue.t;  (* framed replies not yet fully written, oldest first *)
  mutable out_off : int;  (* bytes of the head frame already written *)
  mutable progress : float;
      (* when the socket last took bytes, or when the outbox last became
         non-empty *)
}

type entry = {
  submit : Protocol.submit;
  request : Api.request;
  fingerprint : string;
  owner : Unix.file_descr;  (* identity of the submitting client *)
  arrived : float;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  session : Session.t;
  clients : (Unix.file_descr, client) Hashtbl.t;
  queue : entry Queue.t;
  mutable served : int;
  mutable stop : bool;
}

let now () = Unix.gettimeofday ()

let log t fmt =
  if t.cfg.quiet then Printf.ifprintf stdout fmt
  else Printf.fprintf stdout (fmt ^^ "%!")

let metric t name =
  Obs.Metrics.inc (Obs.Metrics.counter (Session.metrics t.session) name) 1.0

let set_gauge t name v =
  Obs.Metrics.set (Obs.Metrics.gauge (Session.metrics t.session) name) v

let observe t name v =
  Obs.Metrics.observe (Obs.Metrics.histogram (Session.metrics t.session) name) v

let queue_depth t = Queue.length t.queue

let create cfg =
  (* A reply to a vanished client must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listener 64;
  {
    cfg;
    listener;
    session =
      Session.create ~plan_cache:cfg.plan_cache ~result_cache:cfg.result_cache
        ?domains:cfg.domains ();
    clients = Hashtbl.create 16;
    queue = Queue.create ();
    served = 0;
    stop = false;
  }

let session t = t.session

(* {2 Client lifecycle} *)

let drop_client t fd ~mid_request =
  if Hashtbl.mem t.clients fd then begin
    Hashtbl.remove t.clients fd;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    metric t "serve.disconnects";
    if mid_request then metric t "serve.client_kills";
    (* Free the dead client's admission slots: its queued requests can
       never be answered, so they must not count against the bound (or
       waste a batch's compute). *)
    let keep = Queue.create () in
    Queue.iter (fun e -> if e.owner <> fd then Queue.add e keep) t.queue;
    Queue.clear t.queue;
    Queue.transfer keep t.queue;
    set_gauge t "serve.queue_depth" (float_of_int (queue_depth t))
  end

(* Write as much of [c]'s outbox as the socket takes without blocking.
   False when the write found the client gone (it is dropped). *)
let rec write_out t c =
  match Queue.peek_opt c.out with
  | None -> true
  | Some frame -> (
      let len = String.length frame - c.out_off in
      match Unix.write_substring c.fd frame c.out_off len with
      | n ->
          c.out_off <- c.out_off + n;
          if n > 0 then c.progress <- now ();
          if n = len then begin
            ignore (Queue.pop c.out);
            c.out_off <- 0;
            write_out t c
          end
          else true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          true
      | exception Unix.Unix_error _ ->
          drop_client t c.fd ~mid_request:true;
          false)

let send t fd msg =
  match Hashtbl.find_opt t.clients fd with
  | None -> false
  | Some c ->
      let frame = Wire.encode (Protocol.encode_server msg) in
      if Queue.is_empty c.out then c.progress <- now ();
      Queue.add frame c.out;
      write_out t c

let pending_output t =
  Hashtbl.fold (fun fd c acc -> if Queue.is_empty c.out then acc else fd :: acc) t.clients []

(* Clients whose outbox is empty: the only ones whose requests are read. *)
let reading t =
  Hashtbl.fold (fun fd c acc -> if Queue.is_empty c.out then fd :: acc else acc) t.clients []

let drop_stalled t =
  let cutoff = now () -. t.cfg.stall_timeout in
  Hashtbl.fold
    (fun fd c acc -> if (not (Queue.is_empty c.out)) && c.progress < cutoff then fd :: acc else acc)
    t.clients []
  |> List.iter (fun fd ->
         log t "distald: dropping a client that took no reply bytes for %gs\n"
           t.cfg.stall_timeout;
         metric t "serve.stalled_clients";
         drop_client t fd ~mid_request:true)

let write_ready t fds =
  List.iter
    (fun fd -> Option.iter (fun c -> ignore (write_out t c)) (Hashtbl.find_opt t.clients fd))
    fds

(* {2 Message handling} *)

let stats_reply t =
  set_gauge t "serve.queue_depth" (float_of_int (queue_depth t));
  Protocol.StatsReply
    {
      queue_depth = queue_depth t;
      served = t.served;
      metrics = Obs.Metrics.to_json (Session.metrics t.session);
    }

let admit t fd (s : Protocol.submit) =
  if queue_depth t >= t.cfg.queue_limit then begin
    metric t "serve.rejected";
    (* Overloaded: tell the client when the current backlog will have
       drained a window, rather than letting the queue grow without
       bound. *)
    let retry_after_s = t.cfg.batch_window +. 0.001 in
    ignore
      (send t fd
         (Protocol.Rejected
            {
              rid = s.Protocol.id;
              retry_after_s;
              reason =
                Printf.sprintf "queue full (depth %d, limit %d)" (queue_depth t)
                  t.cfg.queue_limit;
            }))
  end
  else
    match Protocol.to_request s with
    | Error reason ->
        metric t "serve.bad_requests";
        ignore (send t fd (Protocol.Failed { rid = s.Protocol.id; reason }))
    | Ok request ->
        Queue.add
          {
            submit = s;
            request;
            fingerprint = Api.request_fingerprint request;
            owner = fd;
            arrived = now ();
          }
          t.queue;
        metric t "serve.admitted";
        set_gauge t "serve.queue_depth" (float_of_int (queue_depth t))

let handle_message t fd = function
  | Protocol.Submit s -> admit t fd s
  | Protocol.Stats -> ignore (send t fd (stats_reply t))
  | Protocol.Shutdown ->
      log t "distald: shutdown requested\n";
      ignore (send t fd Protocol.ShutdownAck);
      t.stop <- true

let handle_readable t fd =
  match Hashtbl.find_opt t.clients fd with
  | None -> ()
  | Some c -> (
      match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          drop_client t fd ~mid_request:(Wire.pending c.dec)
      | 0 ->
          (* EOF: clean if on a frame boundary, a mid-request kill if the
             decoder holds a partial frame. *)
          drop_client t fd ~mid_request:(Wire.pending c.dec)
      | n ->
          Wire.feed c.dec c.buf 0 n;
          let rec drain () =
            if Hashtbl.mem t.clients fd && not t.stop then
              match Wire.next c.dec with
              | Ok None -> ()
              | Ok (Some payload) -> (
                  match Protocol.decode_client payload with
                  | Ok msg ->
                      handle_message t fd msg;
                      drain ()
                  | Error e ->
                      metric t "serve.bad_requests";
                      ignore (send t fd (Protocol.Failed { rid = -1; reason = e }));
                      drop_client t fd ~mid_request:false)
              | Error e ->
                  log t "distald: dropping client (%s)\n" e;
                  drop_client t fd ~mid_request:true
          in
          drain ())

let accept t =
  match Unix.accept ~cloexec:true t.listener with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace t.clients fd
        {
          fd;
          dec = Wire.decoder ();
          buf = Bytes.create 65536;
          out = Queue.create ();
          out_off = 0;
          progress = 0.0;
        };
      metric t "serve.connects"

(* {2 Batched execution} *)

(* Group the drained queue by fingerprint, preserving arrival order of
   first occurrence — each group is one compile (plan-cache single
   flight) plus one run per member (byte-identical members collapse onto
   the result cache). *)
let group_by_fingerprint entries =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.fingerprint with
      | Some l -> l := e :: !l
      | None ->
          Hashtbl.add tbl e.fingerprint (ref [ e ]);
          order := e.fingerprint :: !order)
    entries;
  List.rev_map (fun fp -> List.rev !(Hashtbl.find tbl fp)) !order

let serve_entry t ~batch e =
  let s = e.submit in
  let faults =
    match s.Protocol.faults with
    | None -> Ok None
    | Some spec -> Result.map Option.some (Api.Fault.parse spec)
  in
  let reply =
    match faults with
    | Error reason -> Protocol.Failed { rid = s.Protocol.id; reason }
    | Ok faults -> (
        match
          Session.run ~mode:s.Protocol.mode ?faults ~seed:s.Protocol.seed t.session
            e.request
        with
        | Error reason -> Protocol.Failed { rid = s.Protocol.id; reason }
        | Ok o ->
            t.served <- t.served + 1;
            Protocol.Result
              {
                rid = s.Protocol.id;
                plan_cached = o.Session.plan_cached;
                result_cached = o.Session.result_cached;
                batch;
                stats = o.Session.result.Api.Exec.stats;
                output = o.Session.result.Api.Exec.output;
              }
        | exception exn ->
            (* Last resort: a request that escapes validation fails alone
               instead of taking the server down. *)
            metric t "serve.internal_errors";
            Protocol.Failed
              { rid = s.Protocol.id; reason = "internal error: " ^ Printexc.to_string exn })
  in
  if Hashtbl.mem t.clients e.owner then ignore (send t e.owner reply)

let flush t =
  let entries = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  set_gauge t "serve.queue_depth" 0.0;
  let groups = group_by_fingerprint entries in
  List.iter
    (fun group ->
      metric t "serve.batches";
      observe t "serve.batch_size" (float_of_int (List.length group));
      let batch = List.length group in
      List.iter (serve_entry t ~batch) group)
    groups

(* {2 The loop} *)

let oldest_arrival t = Queue.peek_opt t.queue |> Option.map (fun e -> e.arrived)

let step t ~idle_timeout =
  let timeout =
    match oldest_arrival t with
    | None -> idle_timeout
    | Some arrived -> Float.max 0.0 (arrived +. t.cfg.batch_window -. now ())
  in
  (match Unix.select (t.listener :: reading t) (pending_output t) [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      write_ready t writable;
      List.iter
        (fun fd -> if fd = t.listener then accept t else handle_readable t fd)
        readable);
  drop_stalled t;
  match oldest_arrival t with
  | Some arrived when now () >= arrived +. t.cfg.batch_window -> flush t
  | _ -> ()

(* Before the sockets close, give every queued reply (the shutdown ack
   included) up to [grace] seconds to reach its client. *)
let drain_output t ~grace =
  let deadline = now () +. grace in
  let rec go () =
    match pending_output t with
    | [] -> ()
    | fds ->
        let left = deadline -. now () in
        if left > 0.0 then begin
          (match Unix.select [] fds [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | _, writable, _ -> write_ready t writable);
          go ()
        end
  in
  go ()

let close t =
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) t.clients;
  Hashtbl.reset t.clients;
  if Sys.file_exists t.cfg.socket_path then
    try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ()

let run t =
  log t "distald: listening on %s (queue %d, window %gs, cache %d plans / %d results)\n"
    t.cfg.socket_path t.cfg.queue_limit t.cfg.batch_window t.cfg.plan_cache
    t.cfg.result_cache;
  (try
     while not t.stop do
       step t ~idle_timeout:0.5
     done;
     (* Drain: every admitted request still gets its result before the
        socket disappears. *)
     if not (Queue.is_empty t.queue) then flush t;
     drain_output t ~grace:5.0
   with e ->
     close t;
     raise e);
  log t "distald: served %d requests, bye\n" t.served;
  close t

let serve cfg =
  let t = create cfg in
  run t
