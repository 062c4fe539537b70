type link = Intra | Inter

(* Stdlib's [max]/[min] at type float: the comparison compiles inline
   instead of calling the polymorphic compare, with the same results. *)
let[@inline] max (a : float) b = if a >= b then a else b
let[@inline] min (a : float) b = if a <= b then a else b

type duplex = Full | Half

type t = {
  name : string;
  alpha_intra : float;
  alpha_inter : float;
  beta_intra : float;
  beta_inter : float;
  compute_rate : float;
  mem_bw : float;
  overlap : float;
  task_overhead : float;
  rack_nodes : int;
  rack_uplink : float;
  duplex : duplex;
  pack_overhead : float;
  kernel_rates : (string * float) list;
}

(* Every field that influences a predicted time, in declaration order, so
   two models that could rank candidates differently never share a digest.
   Floats are rendered with %h (hex, exact) — no rounding collisions. *)
let digest t =
  let b = Buffer.create 128 in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let flt f = str (Printf.sprintf "%h" f) in
  str t.name;
  flt t.alpha_intra;
  flt t.alpha_inter;
  flt t.beta_intra;
  flt t.beta_inter;
  flt t.compute_rate;
  flt t.mem_bw;
  flt t.overlap;
  flt t.task_overhead;
  str (string_of_int t.rack_nodes);
  flt t.rack_uplink;
  str (match t.duplex with Full -> "full" | Half -> "half");
  flt t.pack_overhead;
  List.iter
    (fun (k, r) ->
      str k;
      flt r)
    t.kernel_rates;
  Digest.to_hex (Digest.string (Buffer.contents b))

let[@inline] combine_sr t ~send ~recv =
  match t.duplex with Full -> max send recv | Half -> send +. recv

let fabric_time t ~cross_rack_bytes ~racks =
  if racks <= 1 then 0.0 else cross_rack_bytes /. (t.rack_uplink *. float_of_int racks)

let alpha t = function Intra -> t.alpha_intra | Inter -> t.alpha_inter
let beta t = function Intra -> t.beta_intra | Inter -> t.beta_inter
let copy_time t link ~bytes = alpha t link +. (bytes /. beta t link)

(* A coalesced strided run travels as one message: one alpha, the summed
   bandwidth term, plus a small per-fragment cost for packing the strips
   into (and out of) a contiguous wire buffer. A single-fragment transfer
   pays nothing extra, so blocked layouts are priced exactly as before. *)
let pack_time t ~fragments =
  if fragments <= 1 then 0.0 else float_of_int (fragments - 1) *. t.pack_overhead

let strided_copy_time t link ~bytes ~fragments =
  copy_time t link ~bytes +. pack_time t ~fragments

let collective_factor k =
  if k <= 1 then 0.0 else ceil (log (float_of_int k) /. log 2.0)

(* Large-message collectives are bandwidth-optimal (scatter/allgather style,
   van de Geijn): the latency term grows with the tree depth but the
   bandwidth term is ~2x a point-to-point transfer regardless of fan-out.
   This matters for reproducing the paper's GPU results: Cannon's systolic
   shifts (pure point-to-point) beat SUMMA's broadcasts by a constant
   factor, not by log p (§7.1.2). *)

(* In a scatter/allgather broadcast every participant forwards data, so
   receivers carry a send occupancy of ~bytes as well — harmless on
   full-duplex links, costly on the half-duplex framebuffer path (this is
   why systolic schedules beat broadcast schedules at scale, §7.1.2). *)
let broadcast_participant_send t link ~bytes ~receivers =
  if receivers <= 1 then 0.0
  else
    let k = float_of_int receivers in
    (k -. 1.0) /. k *. bytes /. beta t link

let broadcast_time t link ~bytes ~receivers =
  if receivers <= 0 then 0.0
  else
    let k = float_of_int receivers in
    (collective_factor (receivers + 1) *. alpha t link)
    +. (2.0 *. k /. (k +. 1.0) *. bytes /. beta t link)

let reduce_time t link ~bytes ~contributors =
  if contributors <= 1 then 0.0
  else
    let k = float_of_int contributors in
    (collective_factor contributors *. alpha t link)
    +. (2.0 *. (k -. 1.0) /. k *. bytes /. beta t link)
    +. (bytes /. t.mem_bw)

(* {2 Fault tolerance}

   Checkpoints are replica copies: a processor streams its step snapshot
   to a buddy over the given link as one message, and a rollback streams
   it back, so both are plain alpha-beta transfers. Failure detection is
   a missed-heartbeat timeout — a couple of orders of magnitude above the
   network latency, far below a step. A dropped message costs the sender
   a retransmission timeout plus the full resend of the (possibly
   strided) transfer. *)

let checkpoint_time t link ~bytes = copy_time t link ~bytes
let restore_time t link ~bytes = copy_time t link ~bytes
let detect_time t = 100.0 *. t.alpha_inter

let retransmit_time t link ~bytes ~fragments =
  (10.0 *. alpha t link) +. strided_copy_time t link ~bytes ~fragments

let compute_time t ~flops ~bytes_touched =
  max (flops /. t.compute_rate) (bytes_touched /. t.mem_bw)

(* A substituted leaf runs a registry microkernel, not the abstract
   processor's peak-rate loop: when calibration has measured that
   kernel's achieved flop rate, price the leaf with it. The memory-bound
   arm keeps the machine's bandwidth — the measured rate already folds
   the kernel's own cache behaviour into its compute arm. *)
let leaf_rate t ~kernel =
  let rec find = function
    | [] -> t.compute_rate
    | (k, r) :: rest -> if String.equal k kernel then r else find rest
  in
  find t.kernel_rates

let leaf_compute_time t ~kernel ~flops ~bytes_touched =
  max (flops /. leaf_rate t ~kernel) (bytes_touched /. t.mem_bw)

let[@inline] step_time t ~compute ~comm =
  compute +. max 0.0 (comm -. (t.overlap *. min compute comm))

(* The formulas above inlined into one loop per step. The running maximum
   keeps a NaN, as [Float.max] does; a step time is never -0. *)
let step_times t ~kernel ~flops ~bytes_touched ~off ~send ~recv ~compute ~comm =
  let rate = match kernel with Some kernel -> leaf_rate t ~kernel | None -> t.compute_rate in
  let worst = ref 0.0 in
  for p = 0 to Array.length send - 1 do
    let c = max (flops.(off + p) /. rate) (bytes_touched.(off + p) /. t.mem_bw)
    and m = combine_sr t ~send:send.(p) ~recv:recv.(p) in
    compute.(p) <- c;
    comm.(p) <- m;
    let busy = step_time t ~compute:c ~comm:m in
    if busy > !worst || busy <> busy then worst := busy
  done;
  !worst

(* Calibration anchors (see DESIGN.md):
   - Power9 node dgemm: ~20 GF/s per core; 36 work cores -> 720 GF/s,
     40 cores -> 800 GF/s.
   - V100 dgemm: 7.0 TF/s.
   - IB EDR: 25 GB/s peak; 23 GB/s effective from CPU memory, 18 GB/s from
     GPU framebuffer through Legion's DMA system (§7.1.2).
   - NVLink 2.0: 60 GB/s effective per GPU pair.
   - Node memory bandwidth ~135 GB/s (shared); V100 HBM2 ~800 GB/s. *)

let cpu_base =
  {
    name = "cpu";
    alpha_intra = 1e-6;
    alpha_inter = 5e-6;
    beta_intra = 30e9;
    beta_inter = 23e9;
    compute_rate = 720e9;
    mem_bw = 135e9;
    overlap = 1.0;
    task_overhead = 50e-6;
    rack_nodes = 16;
    rack_uplink = 16.0 *. 23e9 /. 2.0;
    duplex = Full;
    (* memcpy of a cache-line-sized strip plus loop overhead. *)
    pack_overhead = 100e-9;
    kernel_rates = [];
  }

let cpu_distal = { cpu_base with name = "cpu-distal" }
let cpu_full_node = { cpu_base with name = "cpu-full"; compute_rate = 800e9; task_overhead = 0.0 }

(* ScaLAPACK and CTF run 4 MPI ranks per node (§7.1): the rank
   decomposition costs ~20% of single-node BLAS throughput in panel
   copies and smaller local GEMMs, on top of their weaker
   communication/computation overlap. Node-level models below; the
   [cpu_rank_*] variants describe one of the four ranks (quarter of the
   node's compute, memory bandwidth and NIC). *)
let cpu_no_overlap =
  { cpu_base with name = "cpu-no-overlap"; compute_rate = 640e9; overlap = 0.0; task_overhead = 0.0 }

let cpu_ctf =
  { cpu_base with name = "cpu-ctf"; compute_rate = 640e9; overlap = 0.5; task_overhead = 100e-6 }

let cpu_rank_no_overlap =
  {
    cpu_no_overlap with
    name = "cpu-rank-no-overlap";
    compute_rate = 160e9;
    mem_bw = 34e9;
    beta_inter = 23e9 /. 4.0;
  }

let cpu_rank_ctf =
  {
    cpu_ctf with
    name = "cpu-rank-ctf";
    (* CTF's tensor-blocking layer costs a little more of the local BLAS
       throughput than ScaLAPACK's panels. *)
    compute_rate = 150e9;
    mem_bw = 34e9;
    beta_inter = 23e9 /. 4.0;
  }

let gpu_distal =
  {
    name = "gpu-distal";
    alpha_intra = 2e-6;
    alpha_inter = 5e-6;
    beta_intra = 60e9;
    (* Four GPUs share the node's NIC; per-GPU share of the 18 GB/s the
       Legion DMA system reaches from framebuffer memory (§7.1.2). *)
    beta_inter = 18e9 /. 4.0;
    compute_rate = 7e12;
    mem_bw = 800e9;
    overlap = 1.0;
    task_overhead = 50e-6;
    rack_nodes = 16;
    (* 2:1 tapered uplinks; Legion's DMA path reaches 18 of 25 GB/s per
       node out of framebuffer memory, and its send and receive engines
       contend for the same PCIe/NIC path. *)
    rack_uplink = 16.0 *. 18e9 /. 2.0;
    duplex = Half;
    (* Strided gathers out of framebuffer memory go through the DMA
       engines; per-strip setup is costlier than a CPU memcpy loop. *)
    pack_overhead = 200e-9;
    kernel_rates = [];
  }

let gpu_cosma =
  {
    gpu_distal with
    name = "gpu-cosma";
    beta_inter = 23e9 /. 4.0;
    (* Out-of-core GEMM staged through CPU memory: host-device transfers
       halve effective single-node throughput, but the full 23 GB/s NIC
       rate is available since data is CPU-resident (§7.1.2). *)
    compute_rate = 3.5e12;
    task_overhead = 0.0;
    rack_uplink = 16.0 *. 23e9 /. 2.0;
    duplex = Full;
  }
