(** Critical-path analysis over the simulator's step DAG.

    The runtime executes in bulk-synchronous steps: within a step every
    processor's compute and communication overlap per the cost model, and
    the step ends when its slowest resource does (a processor, or the
    tapered rack fabric). Steps chain sequentially, followed by the
    reduction epilogue; per-task launch overhead front-loads the run. The
    critical path is therefore one bottleneck resource per step plus the
    fixed prologue/epilogue — [end_time] reconstructs exactly the
    simulator's total time, and the per-node compute/comm attribution is
    the number future optimizations move. *)

(** One processor's occupancy within one step. *)
type slot = {
  proc : int;
  compute : float;  (** compute occupancy, seconds *)
  comm : float;  (** communication occupancy (after duplex combining) *)
  busy : float;  (** combined occupancy under the overlap model *)
}

type step = {
  index : int;  (** bulk-synchronous step number *)
  start : float;  (** offset within the run, seconds *)
  cost : float;  (** charged step duration: max busy, or fabric *)
  slots : slot list;  (** ascending by [proc]; only active processors *)
  bytes : float;  (** payload moved this step *)
  messages : int;
  fabric : float;  (** rack-uplink occupancy this step *)
}

(** The per-run schedule skeleton the simulator hands to analysis. *)
type timeline = {
  nprocs : int;
  overhead : float;  (** per-task launch overhead, charged up front *)
  reduction : float;  (** distributed-reduction epilogue *)
  recovery : float;
      (** fault detection + checkpoint restore + replay after injected
          kills (see [lib/fault]); 0 on a fault-free run *)
  steps : step list;  (** ascending by [index] *)
  total : float;
      (** overhead + step costs + reduction + recovery = [Stats.time] *)
}

(** One link of the critical path. *)
type node = {
  step : int;  (** step index; -1 for the overhead/reduction/recovery links *)
  resource : string;
      (** ["proc N"], ["fabric"], ["runtime"], ["reduction"], ["recovery"] *)
  compute : float;  (** compute share of this link *)
  comm : float;  (** exposed communication share *)
  cost : float;  (** link duration = the step's charged cost *)
}

type t = {
  end_time : float;  (** finish time of the whole run; equals [timeline.total] *)
  nodes : node list;
  compute_time : float;  (** sum of compute shares along the path *)
  comm_time : float;  (** sum of exposed-communication shares *)
  overhead : float;
  reduction : float;
  recovery : float;  (** fault-recovery share of the path; 0 when fault-free *)
  slack : (int * float) list;
      (** per processor: idle seconds across all steps (step cost minus the
          processor's busy time); ascending by processor, every processor
          present *)
  bottleneck : string;  (** the resource holding the most path time *)
}

val analyse : timeline -> t

val step_bottleneck : step -> node
(** The slowest resource of one step and its compute/comm attribution. *)
