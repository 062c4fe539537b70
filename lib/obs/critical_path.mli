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
  flops : float;  (** leaf flops charged to it this step *)
  bytes_touched : float;  (** instance bytes its leaves touched this step *)
}

(** One wire payload of a step, sent from one source: a point-to-point
    message, or a broadcast when it has several receivers. *)
type copy = {
  tensor : string;
  rects : Distal_tensor.Rect.t list;
      (** the payload, in canonical order; a single-element list is a
          plain contiguous block copy *)
  fragments : int;  (** [List.length rects] *)
  src : int;
  bytes : float;  (** payload bytes, 8 per element *)
  receivers : int array;  (** destinations, ascending *)
}

type step = {
  index : int;  (** bulk-synchronous step number *)
  start : float;  (** offset within the run, seconds *)
  cost : float;  (** charged step duration: max busy, or fabric *)
  slots : slot list;  (** ascending by [proc]; only active processors *)
  bytes : float;  (** payload moved this step *)
  messages : int;
  fabric : float;  (** rack-uplink occupancy this step *)
  copies : copy list;  (** the step's wire payloads, in canonical order *)
}

(** One recovery from an injected kill. *)
type episode = {
  victim : int;  (** the killed processor *)
  kill_step : int;
  from_step : int;  (** the checkpoint boundary the replay starts from *)
  detect : float;
  restore : float;
  replay : float;
}

(** A simulated run's priced record: the step table and everything its
    profile shows. It is the run's profile; {!Profile.events} renders its
    events on demand. *)
type timeline = {
  nprocs : int;
  grid : int array;  (** processor [p] sits at [p]'s row-major coordinate *)
  node_of : int array;  (** per processor, its node *)
  tasks_per_proc : int;
  overhead : float;  (** per-task launch overhead, charged up front *)
  reduction : float;  (** distributed-reduction epilogue *)
  recovery : float;
      (** fault detection + checkpoint restore + replay after injected
          kills (see [lib/fault]); 0 on a fault-free run *)
  episodes : episode list;  (** in strike order *)
  steps : step list;  (** ascending by [index] *)
  total : float;
      (** overhead + step costs + reduction + recovery = [Stats.time] *)
  exchange : bool;
      (** a redistribution: one exchange step with no runtime track *)
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
