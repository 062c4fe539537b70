(** The distributed matrix-multiplication case studies of §4 / Fig. 9.

    Each algorithm is expressed exactly as the paper does: a target machine
    organization, initial data distributions in tensor distribution
    notation, and a schedule of the statement
    [A(i,j) = B(i,k) * C(k,j)]. The returned plan is compiled and ready to
    validate ({!Distal.Api.validate}) or cost ({!Distal.Api.estimate}).

    2-D algorithms (SUMMA, Cannon, PUMMA) expect a 2-D machine; Johnson,
    Solomonik's 2.5D and COSMA expect a 3-D machine. GPU experiments pass
    machines whose node_factors group four processors per node. *)

type t = {
  name : string;
  year : int;
  dists : (string * string) list;
      (** tensor name -> distribution notation, as displayed in Fig. 9 *)
  schedule : Distal_ir.Schedule.t list;
  plan : Distal.Api.plan;
}

val summa :
  ?chunks_per_tile:int -> n:int -> machine:Distal_machine.Machine.t -> unit ->
  (t, string) result
val cannon : n:int -> machine:Distal_machine.Machine.t -> (t, string) result
val pumma : n:int -> machine:Distal_machine.Machine.t -> (t, string) result
val johnson :
  ?virtual_cube:int array -> n:int -> machine:Distal_machine.Machine.t -> unit ->
  (t, string) result
(** With [virtual_cube], the cube grid is decoupled from the physical
    machine: the launch and distributions over-decompose onto it and fold
    back onto the machine — the paper's Johnson behaviour on non-cube
    processor counts (§7.1.2). *)

val solomonik : n:int -> machine:Distal_machine.Machine.t -> (t, string) result
(** 2.5D: machine dims [| g; g; c |]; the third dimension is the
    replication depth c. *)

val cosma : n:int -> machine:Distal_machine.Machine.t -> (t, string) result
(** The machine should come from {!Cosma_scheduler.find}'s grid. Each
    processor's share of the k range runs in four steps. *)

val all_2d : (string * (n:int -> machine:Distal_machine.Machine.t -> (t, string) result)) list
(** Name -> constructor for the 2-D family. *)
