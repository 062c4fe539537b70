(** A metrics registry: named counters, gauges and histograms.

    The runtime simulator used to accumulate its statistics in ad-hoc
    mutable record fields; this registry replaces those with named,
    queryable instruments. Instruments are get-or-created by name, so
    independent layers can contribute to the same registry. Handles are
    plain refs under the hood — updating a metric on the simulator's hot
    path costs one float store. *)

type counter
(** Monotonically increasing sum. *)

type gauge
(** Last- or max-set value. *)

type histogram
(** Count/sum/min/max plus fixed bucket counts. *)

type registry

val create : unit -> registry

val counter : registry -> string -> counter
(** Get or create. @raise Invalid_argument if the name exists with a
    different instrument kind. *)

val inc : counter -> float -> unit
val inc_int : counter -> int -> unit

val gauge : registry -> string -> gauge
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the larger of the current and given values (peaks). *)

val seconds_buckets : float array
(** Decade buckets 1e-6, 1e-5, ..., 10 (suits wall-clock seconds). *)

val histogram : ?buckets:float array -> registry -> string -> histogram
(** Get or create. [buckets] defaults to the decades 1, 10, ..., 1e12
    (suits both bytes and flops). *)

val observe : histogram -> float -> unit

val observe_n : histogram -> float -> int -> unit
(** [observe_n h v k] records [v] [k] times: the histogram equals the one
    [k] calls of [observe h v] leave, its sum included, bit for bit.
    Nothing for [k <= 0]. *)

val histogram_count : histogram -> int

val value : registry -> string -> float option
(** Counter value, gauge value, or histogram sum, by name. *)

val names : registry -> string list
(** Sorted. *)

val to_json : registry -> Distal_support.Json.t
(** Deterministic (name-sorted) snapshot of every instrument. *)

val render : registry -> string
(** Human-readable one-instrument-per-line snapshot, name-sorted. *)
