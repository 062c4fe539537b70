(** The [distald] server engine: a select-driven loop over a Unix-domain
    socket serving concurrent clients from one shared {!Session} (one
    plan cache, one result cache, one replay domain pool).

    Requests are served on arrival. Submits are admitted into a bounded
    queue — or explicitly rejected with a retry-after once the bound is
    hit — and every loop iteration ends by flushing what it admitted. A
    flush groups the queue by plan fingerprint, so same-shape requests
    that arrived together (for example in one read) share a single
    compile (and byte-identical ones share a single run via the result
    cache). A Full request whose reply could not fit one wire frame
    fails at admission. Replies are written without blocking: each
    client has an outbox drained as its socket accepts bytes, so a
    client that stops reading stalls only itself. Replies are framed
    into one spare buffer, owned by an outbox until the frame is sent,
    so steady replies allocate no frames. A client with
    unwritten replies is not read from until they are out (pushback),
    and one whose socket takes no bytes for [stall_timeout] seconds is
    dropped. Clients that die mid-request are detected and their queue
    slots reclaimed; a killed-and-restarted server recompiles on miss and
    reproduces identical results (checkpoint-free recovery — the
    simulator is deterministic).

    The loop stamps its own layers into the session's registry, always
    on: [serve.decode_s] (decoding each client frame) and
    [serve.reply_s] (framing each reply and its first write), beside the
    session's per-request stamps (see {!Session.metrics}). A stats reply
    also carries the replay pool's {!Distal_support.Pool.stats} as the
    gauges [pool.jobs], [pool.items], [pool.worker_items] and
    [pool.busy_fallbacks]. *)

type config = {
  socket_path : string;
  queue_limit : int;  (** admission bound; >= 1 *)
  plan_cache : int;
  result_cache : int option;  (** [None]: {!Session.create}'s default *)
  domains : int option;
  stall_timeout : float;
      (** seconds a client may leave replies unread before it is dropped *)
  quiet : bool;
}

val config :
  ?queue_limit:int ->
  ?plan_cache:int ->
  ?result_cache:int ->
  ?domains:int ->
  ?stall_timeout:float ->
  ?quiet:bool ->
  socket_path:string ->
  unit ->
  config
(** Omitted fields take the built-in defaults (queue 64, stall timeout
    30 s, caches per {!Session.create}). [domains] sizes the pool that
    replays Full requests and fills their seeded inputs.
    @raise Invalid_argument on a non-positive queue or stall timeout, or a
    negative cache capacity. *)

type t

val create : config -> t
(** Bind and listen on [socket_path] (an existing socket file is
    replaced); ignores [SIGPIPE]. *)

val session : t -> Session.t

val queue_depth : t -> int

val oversize_reply : Protocol.submit -> string option
(** [Some reason] when a Full submit's declared output alone, at
    {!Protocol.output_length} bytes, exceeds one wire frame: such a
    request fails at admission. *)

val step : t -> idle_timeout:float -> unit
(** One iteration of the event loop: wait at most [idle_timeout]s for
    connections/messages, admit or reject, then serve everything
    admitted. Exposed for tests; {!run} loops it. *)

val run : t -> unit
(** Serve until a [Shutdown] message arrives (requests admitted in the
    same iteration are still served), then close every connection and
    unlink the socket. *)

val close : t -> unit

val serve : config -> unit
(** [create] + [run]. *)
