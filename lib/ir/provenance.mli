(** Derivation graph of index variables.

    Scheduling transformations replace loop variables with derived ones
    (divide and split produce an outer/inner pair, collapse fuses two loops,
    rotate substitutes a time-shifted variable). This graph records every
    derivation so that later passes can recover, for any partial assignment
    of the *currently live* loop variables, the interval of values each
    original (root) variable can take. That interval analysis is the bounds
    analysis of §6.2: it yields the hyper-rectangle of tensor coordinates a
    loop iteration touches, from which the runtime derives partitions and
    communication.

    Conventions:
    - divide/split: [parent = outer * inner_size + inner], where divide
      fixes the number of outer iterations ([parts]) and split fixes the
      inner chunk size; iterations where a reconstructed variable reaches
      its parent's extent are guard-excluded (boundary tiles).
    - collapse: [fused = first * extent second + second].
    - rotate (§3.3): [target = (result + sum by) mod extent target]. *)

type t

type consumption =
  | Divided_into of { outer : Ident.t; inner : Ident.t; inner_size : int }
  | Fused_into of { fused : Ident.t; pos : [ `First | `Second ] }
  | Rotated_into of { result : Ident.t; by : Ident.t list }
      (** How a consumed variable is reconstructed from its replacements
          (see the conventions above). Exposed so staging passes can
          compile the reconstruction instead of re-interpreting it per
          iteration-space point. *)

val create : (Ident.t * int) list -> t
(** Fresh graph with the given root variables and extents. *)

val consumption : t -> Ident.t -> consumption option
(** How [v] was transformed away, or [None] while it is live (or unknown). *)

val consumed : t -> Ident.t list
(** Every consumed variable, in unspecified order. These are exactly the
    variables {!guards_fn} can reject. *)

val copy : t -> t
val mem : t -> Ident.t -> bool
val extent : t -> Ident.t -> int
val roots : t -> Ident.t list

val divide :
  t -> Ident.t -> outer:Ident.t -> inner:Ident.t -> parts:int -> (unit, string) result

val split :
  t -> Ident.t -> outer:Ident.t -> inner:Ident.t -> chunk:int -> (unit, string) result

val fuse : t -> first:Ident.t -> second:Ident.t -> fused:Ident.t -> (unit, string) result

val rotate :
  t -> target:Ident.t -> by:Ident.t list -> result:Ident.t -> (unit, string) result

val is_live : t -> Ident.t -> bool
(** A variable is live when it has been introduced and not yet consumed by a
    later transformation — i.e. it is an actual loop variable. *)

val interval : t -> env:(Ident.t -> int option) -> Ident.t -> int * int
(** Possible values of a variable (half-open, clipped to its extent) given
    values for some live variables. Unbound live variables range over their
    full extent. *)

val interval_fn : t -> slot:(Ident.t -> int option) -> Ident.t -> int array -> int * int
(** {!interval} compiled once for environments held in an int array:
    [slot v] is the array index of [v]'s binding, [None] for a variable
    the caller never binds, and a negative entry means unbound. Every name
    is resolved at compile time, so calls do no hashing; results equal
    {!interval} under the same bindings. *)

val raw_point_fn : t -> Ident.t -> (Ident.t -> int option) -> int option
(** [raw_point_fn t v env] is the exact unclipped reconstruction of [v]'s
    value when [env] determines it ([None] otherwise). Values at or above
    the variable's extent indicate guard-excluded boundary iterations. The
    walk is compiled once, when [v] is applied: callers that reconstruct
    the same variable under many environments apply it repeatedly. *)

val guards_fn : t -> (Ident.t -> int option) -> bool
(** [guards_fn t env]: whether every reconstructible variable value is
    within its extent — the boundary guard of one iteration-space point.
    Requires an environment binding all live variables. Every variable's
    walk is compiled once, when [t] is applied. *)

val key_deps : t -> bound:(Ident.t -> bool) -> Ident.t -> (Ident.t list * int) list
(** What {!interval} of [v] depends on in environments that bind exactly
    the live variables [bound] accepts, as components [(vars, m)]: the
    sum of [vars]' bindings modulo [m]. A bound live variable [u] on
    [v]'s derivation chain (followed through every consumption, including
    rotate [by] shifts) is [([u], extent u)]. A rotated variable whose
    [result] and [by] variables are all bound is one component
    [(result :: by, extent)], its rotated value: however many bindings of
    those variables produce one value, they give one interval. Sound only
    for environments that bind live variables, i.e. actual loop variables,
    which is what the runtime's task walk maintains. *)

val derives_from : t -> Ident.t -> root:Ident.t -> bool
(** Whether a variable's value derives from [root] (rotate [by] variables
    only shift time, so they do not count as contributing). *)
