(** A reusable pool of OCaml 5 domains for data-parallel sections.

    The executor partitions each index launch's grid points across the
    pool's lanes. Workers are spawned on first use and parked between
    jobs; the calling domain always participates as lane 0, so a pool of
    size [n] runs [n] lanes on [n] domains total.

    A pool runs one job at a time. Any domain may call {!run}: a call
    that finds the pool busy (another domain's job, or a call from inside
    a lane body) runs its lanes one after another on the caller, so
    concurrent sessions never share a job slot. *)

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

val run : t -> lanes:int -> (int -> unit) -> unit
(** [run t ~lanes f] invokes [f lane] for every [lane] in
    [0 .. min lanes (size t) - 1], concurrently on the pool's domains;
    lane 0 runs on the caller. Returns when every lane has finished. If
    any lane raised, the first exception is re-raised in the caller
    (after all lanes finished). With [lanes <= 1] this is just [f 0].
    When the pool is busy the lanes run in order on the caller, and the
    first exception propagates at once. *)

val shutdown : t -> unit
(** Join the pool's worker domains. The pool can be reused afterwards
    (workers respawn on the next multi-lane {!run}). *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — the pool's clock for
    utilization accounting. *)
