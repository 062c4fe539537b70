(* The distald server engine: a select-driven loop over a Unix-domain
   socket serving concurrent clients from one shared session (one plan
   cache, one result cache, one replay domain pool).

   Requests are served on arrival. Each select round reads what every
   ready client sent; a submit is admitted into a bounded queue (or
   rejected with a retry-after once the bound is hit — overload degrades
   into explicit backpressure instead of piling up), and the round ends
   by flushing the queue. A flush groups the queue by plan fingerprint,
   so K same-shape requests that arrived in one round (for example
   frames from one read) cost one compile plus K runs (and, for
   byte-identical requests, one run plus K-1 result-cache replays).
   Stats and shutdown messages bypass the queue. A request whose Full
   reply could not fit one wire frame fails at admission.

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
module Pool = Distal_support.Pool
module Wire = Distal_support.Wire

type config = {
  socket_path : string;
  queue_limit : int;
  plan_cache : int;
  result_cache : int option;
  domains : int option;
  stall_timeout : float;
  quiet : bool;
}

let config ?(queue_limit = 64) ?(plan_cache = Session.default_plan_capacity) ?result_cache
    ?domains ?(stall_timeout = 30.0) ?(quiet = false) ~socket_path () =
  if queue_limit < 1 then invalid_arg "Server.config: queue_limit must be >= 1";
  if not (stall_timeout > 0.0) then invalid_arg "Server.config: stall_timeout must be > 0";
  if plan_cache < 0 then invalid_arg "Server.config: plan_cache must be >= 0";
  if Option.fold ~none:false ~some:(fun c -> c < 0) result_cache then
    invalid_arg "Server.config: result_cache must be >= 0";
  {
    socket_path;
    queue_limit;
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
  out : (Bytes.t * int) Queue.t;  (* framed replies (bytes, length) not yet fully sent *)
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
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  session : Session.t;
  clients : (Unix.file_descr, client) Hashtbl.t;
  queue : entry Queue.t;
  mutable served : int;
  mutable stop : bool;
  mutable spare : Bytes.t;  (* the reply buffer no outbox holds, framed into next *)
}

(* The largest reply buffer kept for the next reply: enough for outputs
   of a few hundred thousand elements, without pinning a 64 MiB frame. *)
let max_spare = 4 * 1024 * 1024

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
      Session.create ~plan_cache:cfg.plan_cache ?result_cache:cfg.result_cache
        ?domains:cfg.domains ();
    clients = Hashtbl.create 16;
    queue = Queue.create ();
    served = 0;
    stop = false;
    spare = Bytes.empty;
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
  | Some (frame, flen) -> (
      let len = flen - c.out_off in
      match Unix.write c.fd frame c.out_off len with
      | n ->
          c.out_off <- c.out_off + n;
          if n > 0 then c.progress <- now ();
          if n = len then begin
            ignore (Queue.pop c.out);
            c.out_off <- 0;
            (* Sent: the next reply is framed into these bytes. *)
            if Bytes.length frame > Bytes.length t.spare && Bytes.length frame <= max_spare then
              t.spare <- frame;
            write_out t c
          end
          else true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          true
      | exception Unix.Unix_error _ ->
          drop_client t c.fd ~mid_request:true;
          false)

let rid_of = function
  | Protocol.Result r -> r.Protocol.rid
  | Rejected { rid; _ } | Failed { rid; _ } -> rid
  | StatsReply _ | ShutdownAck -> -1

(* Frame [msg] into [fd]'s outbox and write what the socket takes; the
   frame and that first write are stamped as [serve.reply_s]. The frame
   goes into the spare buffer, which the outbox owns until it is sent, so
   a steady stream of replies allocates no frames. *)
let send t fd msg =
  match Hashtbl.find_opt t.clients fd with
  | None -> false
  | Some c ->
      Session.timed t.session "serve.reply_s" @@ fun () ->
      let buf = t.spare in
      t.spare <- Bytes.empty;
      let frame =
        match Protocol.frame_server buf msg with
        | frame -> frame
        | exception Invalid_argument reason ->
            (* A reply the wire cannot carry fails that request alone. *)
            metric t "serve.internal_errors";
            Protocol.frame_server buf (Protocol.Failed { rid = rid_of msg; reason })
      in
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
  let p = Pool.stats (Pool.get ?size:t.cfg.domains ()) in
  List.iter
    (fun (name, v) -> set_gauge t name (float_of_int v))
    [
      ("pool.jobs", p.Pool.jobs); ("pool.items", p.Pool.items);
      ("pool.worker_items", p.Pool.worker_items); ("pool.busy_fallbacks", p.Pool.busy_fallbacks);
    ];
  Protocol.StatsReply
    {
      queue_depth = queue_depth t;
      served = t.served;
      metrics = Obs.Metrics.to_json (Session.metrics t.session);
    }

(* A Full reply carries its output in [Protocol.output_length] bytes
   before anything around it. Known from the output's declared shape
   before any work runs; [Some reason] when that alone exceeds one wire
   frame. A negative extent is left to [Api.problem] to name. *)
let oversize_reply (s : Protocol.submit) =
  if s.Protocol.mode <> Api.Exec.Full then None
  else
    match Distal_ir.Einsum_parser.parse s.Protocol.stmt with
    | Error _ -> None
    | Ok stmt -> (
        let out = stmt.Api.Expr.lhs.tensor in
        match List.find_opt (fun td -> td.Protocol.td_name = out) s.Protocol.tensors with
        | None -> None
        | Some td -> (
            match Protocol.output_length td.td_shape with
            | Some bytes when bytes > Wire.max_frame ->
                Some
                  (Printf.sprintf
                     "the output %s alone takes %d bytes of the reply, over the %d-byte \
                      frame limit"
                     out bytes Wire.max_frame)
            | _ -> None))

let admit t fd (s : Protocol.submit) =
  if queue_depth t >= t.cfg.queue_limit then begin
    metric t "serve.rejected";
    (* Overloaded: the queue drains at the end of this round, so the
       client may retry almost at once — but the queue never grows
       without bound. *)
    let retry_after_s = 0.001 in
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
    match
      Result.bind (Protocol.to_request s) (fun r ->
          match oversize_reply s with Some reason -> Error reason | None -> Ok r)
    with
    | Error reason ->
        metric t "serve.bad_requests";
        ignore (send t fd (Protocol.Failed { rid = s.Protocol.id; reason }))
    | Ok request ->
        Queue.add
          { submit = s; request; fingerprint = Api.request_fingerprint request; owner = fd }
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
                  let decode () = Protocol.decode_client payload in
                  match Session.timed t.session "serve.decode_s" decode with
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

(* Group the queue by fingerprint, preserving arrival order of
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
  let failed reason = (Protocol.Failed { rid = s.Protocol.id; reason }, ignore) in
  let reply, release =
    match faults with
    | Error reason -> failed reason
    | Ok faults -> (
        match
          Session.run ~mode:s.Protocol.mode ?faults ~seed:s.Protocol.seed t.session
            e.request
        with
        | Error reason -> failed reason
        | Ok o ->
            t.served <- t.served + 1;
            ( Protocol.Result
                {
                  rid = s.Protocol.id;
                  plan_cached = o.Session.plan_cached;
                  result_cached = o.Session.result_cached;
                  batch;
                  stats = o.Session.result.Api.Exec.stats;
                  output = o.Session.result.Api.Exec.output;
                },
              o.Session.release )
        | exception exn ->
            (* Last resort: a request that escapes validation fails alone
               instead of taking the server down. *)
            metric t "serve.internal_errors";
            failed ("internal error: " ^ Printexc.to_string exn))
  in
  if Hashtbl.mem t.clients e.owner then ignore (send t e.owner reply);
  (* The reply is framed, so the output's pooled block can be reused. *)
  release ()

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

(* Every round ends with an empty queue: whatever it admitted is served
   before the next select, a shutdown's round included. *)
let step t ~idle_timeout =
  (match Unix.select (t.listener :: reading t) (pending_output t) [] idle_timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      write_ready t writable;
      List.iter
        (fun fd -> if fd = t.listener then accept t else handle_readable t fd)
        readable);
  drop_stalled t;
  if not (Queue.is_empty t.queue) then flush t

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
  log t "distald: listening on %s (queue %d, cache %d plans / %d results)\n"
    t.cfg.socket_path t.cfg.queue_limit t.cfg.plan_cache (Session.result_capacity t.session);
  (try
     while not t.stop do
       step t ~idle_timeout:0.5
     done;
     (* Every admitted request has its reply queued by now; give the
        replies time to leave before the sockets close. *)
     drain_output t ~grace:5.0
   with e ->
     close t;
     raise e);
  log t "distald: served %d requests, bye\n" t.served;
  close t

let serve cfg =
  let t = create cfg in
  run t
