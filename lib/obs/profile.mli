(** A profile: one event stream plus per-run metrics and records.

    A profile is created once and threaded through any number of compiled
    runs ([Exec.execute ?profile], [Api.run ?profile], a whole harness
    figure). Each simulated execution registers itself as a {e run} — it
    gets a fresh pid for its events, its own metrics registry, and a slot
    for its priced record — so several executions coexist in one exported
    trace. Pid 0 is reserved for the compiler's wall-clock spans. A run's
    events are not stored: {!events} renders them from its record. *)

type run = {
  pid : int;
  name : string;
  metrics : Metrics.registry;
  mutable timeline : Critical_path.timeline option;
      (** the run's priced record, once its simulation has finished *)
}

type t

val create : unit -> t
val sink : t -> Event.sink

val set_next_run_name : t -> string -> unit
(** Name the next run registered by a layer that cannot name it itself
    (e.g. the harness labelling the simulator's runs). Consumed by the next
    {!begin_run}. *)

val begin_run : fallback:string -> t -> run
(** Register a run: allocates the next pid, emits its process-name
    metadata. The run is named by a pending {!set_next_run_name}, else
    ["<fallback><pid>"]. *)

val runs : t -> run list
(** In registration order. *)

val events : t -> Event.t list
(** The full stream: the sink's events in emission order, each run's
    events, rendered from its record, right after its process-name
    metadata. Every call renders afresh and returns an equal stream. *)
