(** Export an event stream in Chrome's [trace_event] JSON format.

    The output loads directly in Perfetto (https://ui.perfetto.dev) or
    [chrome://tracing]: runs appear as processes, simulated processors as
    threads, compute/communication as nested slices, per-step traffic as
    counter tracks. Timestamps are exported in microseconds as the format
    requires (simulated seconds × 1e6). *)

val to_string : Event.t list -> string
val of_profile : Profile.t -> string
val save : file:string -> Profile.t -> unit
