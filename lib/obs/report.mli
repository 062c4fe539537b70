(** Human- and machine-readable renderings of a profiled run.

    Generalizes the old [Gantt.summary] (copies and bytes per step) into a
    full per-step breakdown: utilization, compute vs. exposed
    communication, traffic, and the step's bottleneck resource — plus a
    critical-path summary and JSON forms for the bench trajectory. *)

val run_report : Profile.run -> string
(** One run's report:
    - a step table, one row per bulk-synchronous step: charged cost,
      number of active processors, mean utilization (busy/cost averaged
      over all processors), bottleneck compute and exposed-comm split,
      bytes moved, message count, and the bottleneck resource;
    - a critical-path summary: total/compute/comm/overhead/reduction
      split, the dominating resource, and the three laziest processors
      (most slack);
    - the per-tensor traffic read off the [exec.bytes_by_tensor.*]
      counters, largest mover first with its share of all traffic (empty
      when the run moved nothing);
    - a metric snapshot. *)

val resilience_report : baseline:Profile.run -> faulty:Profile.run -> string
(** Side-by-side of the same schedule fault-free vs. under a fault plan
    ([lib/fault]): simulated times and the slowdown factor, the faulted
    run's recovery breakdown ([exec.faults_injected], [exec.replayed_steps],
    [exec.recovery_time]) and the checkpoint traffic
    ([exec.checkpoint_bytes] / [exec.restore_bytes]). *)

val run_to_json : Profile.run -> Distal_support.Json.t
(** The run's timeline, critical path and metrics (no raw events — those
    are {!Chrome_trace}'s job). *)
