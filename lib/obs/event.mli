(** Structured trace events.

    An event is one timed fact about an execution, placed on a (pid, tid)
    track pair: [pid] groups a whole run (one simulated execution, or the
    compiler), [tid] is a resource within it (a processor, or the runtime
    itself). Timestamps are seconds — simulated seconds for runtime events,
    process time for compiler spans — and are converted to the consumer's
    unit at export time ({!Chrome_trace}). *)

type value = Bool of bool | Int of int | Float of float | Str of string

type kind =
  | Span of float  (** an interval; the payload is its duration *)
  | Instant  (** a point in time *)
  | Counter of float  (** a sampled counter value *)
  | Meta  (** naming metadata; [ts] is ignored *)

type t = {
  name : string;
  cat : string;  (** e.g. "compute", "comm", "compile", "runtime" *)
  pid : int;
  tid : int;
  ts : float;  (** seconds *)
  kind : kind;
  attrs : (string * value) list;
}

(** An append-only event sink. Emission order is preserved; a simulated
    run's events are rendered in a deterministic order so traces are
    reproducible. *)
type sink

val sink : unit -> sink
val emit : sink -> t -> unit
val events : sink -> t list
(** In emission order. *)

val value_to_json : value -> Distal_support.Json.t
