(** Performance model for the simulated machine.

    The runtime charges communication with a classic alpha-beta model per
    link class, binomial trees for collectives, and charges leaf kernels at
    the larger of their compute time and memory-traffic time (so
    bandwidth-bound kernels such as TTV behave correctly, §7.2).

    Presets are anchored to the Lassen configuration in §7: Power9 nodes
    (40 cores, 4 reserved for the Legion runtime by DISTAL), V100 GPUs with
    NVLink 2.0 inside a node and Infiniband EDR between nodes. Absolute
    rates are published peaks scaled by typical efficiencies; the
    evaluation's claims are about *relative* behaviour, which this model is
    built to reproduce. *)

type link = Intra  (** same node: NVLink / shared memory *) | Inter  (** network *)

type duplex =
  | Full  (** send and receive overlap (CPU-resident data) *)
  | Half
      (** send and receive serialize — Legion's DMA engines moving
          framebuffer-resident data share the PCIe/NIC path (§7.1.2) *)

type t = {
  name : string;
  alpha_intra : float;  (** message latency, seconds *)
  alpha_inter : float;
  beta_intra : float;  (** bandwidth, bytes/second *)
  beta_inter : float;
  compute_rate : float;  (** flops/second per abstract processor *)
  mem_bw : float;  (** local memory bandwidth, bytes/second *)
  overlap : float;  (** fraction of communication hidden under compute, 0..1 *)
  task_overhead : float;  (** per-task runtime overhead, seconds *)
  rack_nodes : int;  (** nodes per rack (footnote 1: the network itself is
      hierarchical — communication within a rack is faster than between
      racks) *)
  rack_uplink : float;  (** bytes/second of a rack's tapered uplink; traffic
      between racks shares it *)
  duplex : duplex;
  pack_overhead : float;
      (** seconds per extra fragment when a coalesced strided transfer is
          packed into one wire message (see {!strided_copy_time}) *)
  kernel_rates : (string * float) list;
      (** measured achieved flop/s per leaf kernel name (see
          {!leaf_rate}); empty in every preset — filled in by
          [Calibrate.calibrated] *)
}

val digest : t -> string
(** Hex digest over every field that influences a predicted time —
    injective up to hash collisions, so it is safe as a component of
    memoization keys that must distinguish cost models (e.g. the
    auto-scheduler's probe cache across calibration changes). *)

val combine_sr : t -> send:float -> recv:float -> float
(** A processor's communication occupancy in one step given its send and
    receive occupancies, per the model's duplex mode. *)

val fabric_time : t -> cross_rack_bytes:float -> racks:int -> float
(** Occupancy of the rack uplinks when [cross_rack_bytes] of uniformly
    spread traffic crosses racks in one step. *)

val copy_time : t -> link -> bytes:float -> float
(** Point-to-point: alpha + bytes / beta. *)

val pack_time : t -> fragments:int -> float
(** Packing cost of gathering [fragments] strips into one wire buffer:
    [(fragments - 1) * pack_overhead]; zero for a contiguous transfer. *)

val strided_copy_time : t -> link -> bytes:float -> fragments:int -> float
(** A coalesced strided run priced as a single message — one latency term,
    the summed bandwidth term, plus {!pack_time}. With [fragments = 1] this
    is exactly {!copy_time}. *)

val collective_factor : int -> float
(** [collective_factor k] is the binomial-tree depth for [k] participants,
    i.e. [ceil (log2 k)], at least 1 for [k >= 2]; 0 for [k <= 1]. *)

val broadcast_participant_send : t -> link -> bytes:float -> receivers:int -> float
(** Send occupancy of a non-root participant in a scatter/allgather
    broadcast (participants forward data to each other). *)

val broadcast_time : t -> link -> bytes:float -> receivers:int -> float
(** One owner sending the same bytes to [receivers] other processors.
    Bandwidth-optimal large-message broadcast: tree-depth latency plus
    twice the point-to-point bandwidth term. *)

val reduce_time : t -> link -> bytes:float -> contributors:int -> float
(** Tree-reduction of same-shaped buffers from [contributors] processors
    (same large-message model, plus the local accumulation traffic). *)

val compute_time : t -> flops:float -> bytes_touched:float -> float
(** max(flops / compute_rate, bytes_touched / mem_bw). *)

val leaf_rate : t -> kernel:string -> float
(** The flop rate a substituted leaf running [kernel] achieves: the
    measured entry of [kernel_rates] when present, else [compute_rate]. *)

val leaf_compute_time : t -> kernel:string -> flops:float -> bytes_touched:float -> float
(** {!compute_time} with the compute arm priced at {!leaf_rate} — how the
    executor charges substituted leaves. *)

(** {2 Fault tolerance}

    Pricing for the executor's checkpoint/replay recovery (see
    [lib/fault]): checkpoints stream a processor's step snapshot to a
    buddy replica as one message and rollbacks stream it back, so both
    are alpha-beta copies over the buddy link. *)

val checkpoint_time : t -> link -> bytes:float -> float
(** Writing one processor's step snapshot to its replica. *)

val restore_time : t -> link -> bytes:float -> float
(** Reading a snapshot back from the replica during rollback. *)

val detect_time : t -> float
(** Noticing a dead processor: a missed-heartbeat timeout, modelled as
    100x the inter-node message latency. *)

val retransmit_time : t -> link -> bytes:float -> fragments:int -> float
(** Recovering a dropped message: the sender's retransmission timeout
    (10x the link latency) plus a full {!strided_copy_time} resend. *)

val step_time : t -> compute:float -> comm:float -> float
(** Combine one bulk-synchronous step's compute and communication time with
    the model's overlap factor: compute + max(0, comm - overlap * compute). *)

val step_times :
  t -> kernel:string option -> flops:float array -> bytes_touched:float array -> off:int ->
  send:float array -> recv:float array -> compute:float array -> comm:float array -> float
(** One step over processors [p < Array.length send]: [compute.(p)] gets
    [p]'s compute time on [flops.(off + p)] and [bytes_touched.(off + p)]
    ({!leaf_compute_time} of [kernel], else {!compute_time}), [comm.(p)]
    {!combine_sr} of [send.(p)] and [recv.(p)]; returns their largest
    {!step_time}. *)

(** {2 Presets} *)

val cpu_distal : t
(** DISTAL on Lassen CPUs: one abstract processor per node, 36 of 40 cores
    doing work (4 go to the runtime, §7.1.1), Legion overlaps
    communication with computation. *)

val cpu_full_node : t
(** All 40 cores computing — what COSMA uses (§7.1.1's "restricted CPUs"
    line is COSMA on 36 cores, i.e. {!cpu_distal}'s rate). *)

val cpu_no_overlap : t
(** ScaLAPACK-style: no communication/computation overlap (node level). *)

val cpu_ctf : t
(** CTF: partial overlap and per-rank orchestration overhead (node
    level). *)

val cpu_rank_no_overlap : t
(** One of ScaLAPACK's four MPI ranks on a node: a quarter of the node's
    compute, memory bandwidth and NIC. *)

val cpu_rank_ctf : t
(** One of CTF's four ranks per node. *)

val gpu_distal : t
(** One abstract processor per V100. Data lives in framebuffer memory;
    Legion's DMA path reaches 18 of the 25 GB/s node bandwidth (§7.1.2). *)

val gpu_cosma : t
(** COSMA's GPU configuration: data staged in CPU memory (full 23 GB/s
    effective network bandwidth) but an out-of-core GEMM path that halves
    single-node efficiency (§7.1.2: DISTAL is 2x COSMA on one node). *)
