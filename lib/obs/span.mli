(** Emission helpers: build {!Event.t} values with less ceremony.

    Two producers exist. {!Profile.events} renders a simulated run's
    record, whose simulated start/duration pairs are exact, with
    {!complete} / {!instant} / {!counter}; the compiler measures its own
    phases with the process clock and wraps them with {!wall}. *)

val complete :
  Event.sink ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  ts:float ->
  dur:float ->
  ?attrs:(string * Event.value) list ->
  unit ->
  unit
(** A completed interval [ts, ts + dur) in simulated seconds. *)

val instant :
  Event.sink ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  ts:float ->
  ?attrs:(string * Event.value) list ->
  unit ->
  unit

val counter :
  Event.sink -> name:string -> pid:int -> tid:int -> ts:float -> float -> unit

val process_name : Event.sink -> pid:int -> string -> unit
val thread_name : Event.sink -> pid:int -> tid:int -> string -> unit

val wall : Event.sink option -> name:string -> (unit -> 'a) -> 'a
(** [wall sink ~name f] runs [f] and, when [sink] is [Some _], records a
    ["compile"] span of its process-clock duration on the compiler's
    track (pid 0). With [None] it just runs [f] — call sites stay a single
    line whether or not a profile is attached. *)
