(** The executor's runtime view of a fault plan.

    An injector resolves a {!Fault.t} against a concrete run — [nprocs]
    physical processors, [nsteps] bulk-synchronous steps — into the
    queries the executor asks while simulating: is this processor dead at
    this step, which kills actually strike, what happens to this message,
    and where is the last checkpoint boundary before a step. All answers
    are pure functions of the plan, so the injected execution is exactly
    as deterministic as a fault-free one. *)

type t

val create : Fault.t -> nprocs:int -> nsteps:int -> (t, string) result
(** Validates the plan against the run ({!Fault.validate} plus: the plan
    must leave at least one live processor at every step, or there is
    nowhere to fail over to). Kills and message faults aimed at steps
    [>= nsteps] are allowed and simply never strike. *)

val plan : t -> Fault.t
val checkpointing : t -> bool
val interval : t -> int

val has_kills : t -> bool
(** Whether any kill strikes within the run ([at_step < nsteps]). *)

val kills : t -> (int * int) list
(** The kills that strike, as [(proc, at_step)] pairs sorted by step then
    processor. *)

val dead : t -> step:int -> proc:int -> bool
(** Whether [proc] is dead during [step]: some kill struck at or before
    the step and any revival is still in the future. *)

val msg_action : t -> step:int -> tensor:string -> src:int -> dst:int ->
  Fault.msg_action option
(** The first message fault of the plan matching this transfer, if any. *)

val last_boundary : t -> step:int -> int
(** The most recent checkpoint boundary at or before [step]: the replay
    start after a kill at that step. Without checkpointing this is 0 —
    recovery replays the whole run. *)
