(** A reusable pool of OCaml 5 domains for data-parallel loops.

    {!parallel_for} runs the items of one loop, such as the launch points
    of an executed plan or the chunks of a seeded input fill. Items are
    claimed dynamically: the caller and every worker that wakes while
    items remain take the next index from a shared counter, so the loop
    never waits for a worker that has not started. Workers are spawned on
    first use and parked between jobs; the caller runs as lane 0 and
    worker [k] as lane [k], so a pool of size [n] has lanes [0 .. n-1] on
    [n] domains, and a lane id names one domain for the whole job.

    A pool runs one job at a time. Any domain may call {!parallel_for}: a
    call that finds the pool busy (another domain's job, or a call from
    inside an item) runs its items in order on the caller as lane 0, so
    concurrent sessions never share a job. *)

type t

val default_size : unit -> int
(** [DISTAL_NUM_DOMAINS] when set and non-empty (clamped to [1, 64]),
    otherwise {!Domain.recommended_domain_count} — the available cores.
    Parsed via {!Env.positive_int_var}.
    @raise Invalid_argument when the variable is set but not a positive
    integer. *)

val create : int -> t
(** A fresh pool with the given number of lanes (>= 1). Prefer {!get},
    which shares pools and shuts them down at exit. *)

val get : ?size:int -> unit -> t
(** The shared pool of the given size (default {!default_size}), created
    on first request. Shared pools are joined automatically at process
    exit. *)

val size : t -> int

val parallel_for : t -> n:int -> (lane:int -> int -> unit) -> unit
(** [parallel_for t ~n f] runs [f ~lane i] exactly once for every [i] in
    [0 .. n-1], in no fixed order, on the pool's domains; [lane] is the
    running domain's lane, in [0, size t). Returns once every item has
    finished. If an item raises, the items not yet claimed are skipped
    and the first exception is re-raised in the caller after every
    claimed item has finished. With [n = 1], a pool of size 1 or a busy
    pool, the items run in order on the caller as lane 0 and the first
    exception propagates at once. *)

type stats = {
  jobs : int;  (** {!parallel_for} calls with at least one item *)
  items : int;  (** items those calls were given *)
  worker_items : int;  (** of [items], those a worker domain ran rather than the caller *)
  busy_fallbacks : int;  (** calls that found the pool busy and ran serially *)
}

val stats : t -> stats
(** Counts since {!create}. *)

val shutdown : t -> unit
(** Join the pool's worker domains. The pool can be reused afterwards
    (workers respawn on the next parallel job). *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — the pool's clock for
    utilization accounting. *)
