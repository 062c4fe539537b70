(** Deterministic fault plans for the runtime simulator.

    A fault plan is data: which processors die at which bulk-synchronous
    step (and optionally when they rejoin), which messages are dropped or
    delayed, and whether the executor checkpoints for recovery. The
    executor ({!Distal_runtime.Exec.execute}'s [?faults] argument)
    interprets the plan deterministically — the same plan on the same
    schedule always produces the same simulated timings and the same
    (bit-identical) results, so recovery schedules can be compared like
    any other schedule.

    Processors are named by their {e physical linear} index on the
    machine grid ([0 .. num_procs - 1]); with over-decomposition
    ([virtual_grid]) a kill takes out every virtual point folded onto
    that physical processor. Steps are the executor's bulk-synchronous
    step numbers (one per sequential-loop iteration), starting at 0. *)

(** What happens to a matched message. *)
type msg_action =
  | Drop  (** lost once: priced as a detection timeout plus a retransmit *)
  | Delay of float  (** delivered late by the given number of seconds *)

(** Which messages a {!msg_action} applies to. [None] fields match
    anything; messages are the coalesced transfer groups of the
    communication plan, identified by tensor name, physical source and
    destination processor, and step. *)
type msg_pred = {
  tensor : string option;
  src : int option;
  dst : int option;
  at_step : int option;
}

type kill = {
  proc : int;  (** physical linear processor index *)
  at_step : int;  (** dies at the start of this step *)
  revive_at : int option;  (** rejoins at the start of this step, if any *)
}

type t = {
  kills : kill list;
  messages : (msg_pred * msg_action) list;
  checkpoint : bool;
      (** snapshot live region state at step boundaries so recovery can
          replay from the last boundary instead of from scratch *)
  interval : int;  (** boundary spacing in steps (>= 1, default 1) *)
}

val empty : t
(** No faults, no checkpointing: the executor behaves exactly as if no
    plan was given. *)

val is_empty : t -> bool

val plan :
  ?checkpoint:bool ->
  ?interval:int ->
  ?kills:kill list ->
  ?messages:(msg_pred * msg_action) list ->
  unit ->
  t
(** @raise Invalid_argument when [interval < 1]. *)

val kill : ?revive_at:int -> proc:int -> step:int -> unit -> kill

val drop :
  ?tensor:string -> ?src:int -> ?dst:int -> ?step:int -> unit -> msg_pred * msg_action

val delay :
  float -> ?tensor:string -> ?src:int -> ?dst:int -> ?step:int -> unit ->
  msg_pred * msg_action
(** [delay by ...] holds matched messages back by [by] seconds. *)

val random_kill : seed:int -> nprocs:int -> nsteps:int -> t
(** A deterministic seed-driven plan killing one processor at one step
    (uniform over [nprocs] x [nsteps] via {!Distal_support.Rng}), with
    checkpointing on. Equal seeds produce equal plans. *)

val validate : t -> nprocs:int -> (unit, string) result
(** Structural checks: processor indices in range, steps non-negative,
    revival strictly after the kill, delays non-negative and finite.
    (Whether the plan leaves a live processor to fail over to is checked
    by the executor, which also knows the step count.) *)

val to_string : t -> string
(** Canonical plan syntax; [to_string] output always re-{!parse}s to an
    equal plan. *)

val parse : string -> (t, string) result
(** Parse the [--faults] plan syntax: semicolon-separated clauses

    {v
    checkpoint | checkpoint=INTERVAL
    kill(proc=P, step=K [, revive=R])
    drop([tensor=NAME] [, src=P] [, dst=P] [, step=K])
    delay(by=SECONDS [, tensor=NAME] [, src=P] [, dst=P] [, step=K])
    v}

    Whitespace around tokens is ignored; omitted [drop]/[delay] fields
    match every message. *)
