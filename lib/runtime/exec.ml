module Ints = Distal_support.Ints
module Pool = Distal_support.Pool
module Dense = Distal_tensor.Dense
module Rect = Distal_tensor.Rect
module Rect_index = Distal_tensor.Rect_index
module Kreg = Distal_tensor.Kernel_registry
module Machine = Distal_machine.Machine
module Cost = Distal_machine.Cost_model
module Expr = Distal_ir.Expr
module Expr_stage = Distal_ir.Expr_stage
module Provenance = Distal_ir.Provenance
module Bounds = Distal_ir.Bounds
module Taskir = Distal_ir.Taskir
module Distnot = Distal_ir.Distnot
module Kernel_match = Distal_ir.Kernel_match
module Fault = Distal_fault.Fault
module Injector = Distal_fault.Injector
module Checkpoint = Distal_fault.Checkpoint
module Metrics = Distal_obs.Metrics
module Profile = Distal_obs.Profile
module Span = Distal_obs.Span
module Event = Distal_obs.Event
module Cp = Distal_obs.Critical_path

type mode = Full | Model

type spec = {
  machine : Machine.t;
  cost : Cost.t;
  program : Taskir.program;
  dists : (string * Distnot.t) list;
  virtual_grid : int array option;
}

type result = { output : Dense.t option; stats : Stats.t }

type trace_event = {
  step : int;
  tensor : string;
  piece : Rect.t;
  src : int array;
  dst : int array;
  bytes : float;
}

let trace_to_string e =
  Printf.sprintf "step %d: %s%s %s -> %s (%.0f B)" e.step e.tensor
    (Rect.to_string e.piece)
    (Ints.to_string e.src) (Ints.to_string e.dst) e.bytes

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* Everything the simulator moves or stores is 8-byte floats. *)
let bytes_of_rect r = 8.0 *. float_of_int (Rect.volume r)

(* {2 Serial reference interpreter} *)

let serial_reference stmt ~shapes ~data =
  let extents = Distal_ir.Typecheck.check_exn stmt ~shapes in
  let shape_of tn = List.assoc tn shapes in
  let out_name = stmt.Expr.lhs.tensor in
  let out =
    if stmt.accum then
      match List.assoc_opt out_name data with
      | Some d -> Dense.copy d
      | None -> Dense.create (shape_of out_name)
    else Dense.create (shape_of out_name)
  in
  let lookup (a : Expr.access) coord = Dense.get (List.assoc a.tensor data) coord in
  let dims = Array.of_list (List.map snd extents) in
  let vars = Array.of_list (List.map fst extents) in
  Ints.iter_box dims (fun point ->
      let pt v =
        let rec idx k = if vars.(k) = v then k else idx (k + 1) in
        point.(idx 0)
      in
      let v = Expr.eval stmt ~lookup ~point:pt in
      let coord = Array.of_list (List.map pt stmt.lhs.indices) in
      Dense.add_at out coord v);
  out

(* {2 The distributed executor} *)

(* Words the calling domain has allocated so far: minor (read off the
   live allocation pointer, so short runs count too) and major (direct
   major allocations plus promotions). Both counters are per domain. *)
let alloc_words () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

(* One communication bundle after planning: same payload (one rect, or
   several disjoint rects for a strided run), same source, same step.
   Several receivers make it a broadcast. *)
type group = {
  tensor : string;
  rects : Rect.t list;
  fragments : int;
  src : int;
  bytes : float;
  mutable receivers : (int * Cost.link) list;
}

(* One owner-group of a memoized fetch plan: the pieces of a footprint a
   given owner set holds, pre-merged into block/strided form. Owners are
   physical linear indices, deduped, in discovery order. *)
type fetch_group = { fg_owners : int list; fg_load : Comm_plan.payload }

(* One footprint of one tensor at one site of the task walk, shared by
   every task of a lane whose dependent loop variables take the same
   values there. The rect is computed once, the fetch plan on first use. *)
type fentry = {
  f_rect : Rect.t;
  f_bytes : float;
  mutable f_plan : fetch_group list option;
}

(* Turns a task's slot environment into one int at a fixed site of the
   walk: the mixed-radix number of the bound slots a value depends on.
   The slots bound at a site never change, so equal keys mean equal
   dependent bindings. *)
type keyer = { k_slots : int array; k_strides : int array }

let key_of k (env : int array) =
  let acc = ref 0 in
  for i = 0 to Array.length k.k_slots - 1 do
    acc := !acc + (env.(k.k_slots.(i)) * k.k_strides.(i))
  done;
  !acc

(* The task tree with names resolved: loop variables to slots, tensors to
   indices, each [Ensure] to its footprint site. *)
type node =
  | N_seq of { slot : int; extent : int; body : node }
  | N_ensure of { t : int; site : int; body : node }
  | N_leaf

(* Deferred side effects of one task probe. Index-launch points run
   concurrently on a domain pool, so a task body never touches shared
   state: it records its compute charges, communication batches and
   output flushes as an ordered effect list. After the pool joins, the
   caller replays every task's list in launch-point order — metrics,
   traces, step accumulators, checkpoints and reduction bookkeeping
   observe exactly the sequence a serial execution produces, whatever the
   domain count. *)
type fx =
  | Fx_compute of { step : int; at : int }
      (* leaf compute: flops and bytes touched are [nums.(at)] and
         [nums.(at + 1)] of the lane's tape *)
  | Fx_batch of { step : int; raw : Comm_plan.raw }
  | Fx_red of { step : int; rect : Rect.t }
      (* reduction partial: register the contribution *)
  | Fx_out of { step : int; rect : Rect.t }  (* owner-computes write-back *)

(* A lane's effects, task after task, in one growable array; compute
   charges keep their floats unboxed in [nums]. *)
type tape = {
  mutable fx : fx array;
  mutable len : int;
  mutable nums : float array;
  mutable nnums : int;
}

let no_fx = Fx_out { step = 0; rect = Rect.full [||] }

let push tape e =
  if tape.len = Array.length tape.fx then begin
    let a = Array.make ((2 * tape.len) + 64) no_fx in
    Array.blit tape.fx 0 a 0 tape.len;
    tape.fx <- a
  end;
  tape.fx.(tape.len) <- e;
  tape.len <- tape.len + 1

(* One probed task: its effects are [tr_tape.fx.(tr_lo .. tr_hi - 1)]. *)
type task_result = {
  tr_proc : int;
  tr_tape : tape;
  tr_lo : int;
  tr_hi : int;
  tr_dyn_max : float;
}

(* Per-lane working state: every mutable cache a task probe touches. *)
type lane = {
  cursor : Rect_index.cursor;
  sites : fentry Ints.Tbl.t array;  (* per footprint site: key -> entry *)
  by_rect : fentry Rect.Tbl.t array;  (* per tensor: rect -> entry *)
  ivals : float Ints.Tbl.t array;  (* per leaf index variable: key -> length *)
  env : int array;  (* slot -> value, -1 when unbound *)
  tape : tape;
}

(* The index of [name] in [names] (compared physically first). *)
let rec name_index (names : string array) name i =
  if i = Array.length names then invalid_arg ("unknown tensor " ^ name)
  else if names.(i) == name || String.equal names.(i) name then i
  else name_index names name (i + 1)

(* Whether [rect] lies within one of [rects]. *)
let rec within rect = function [] -> false | r :: rs -> Rect.subset rect r || within rect rs

(* The node of each processor, by linear index. *)
let nodes_of_procs machine =
  Array.init (Machine.num_procs machine) (fun p ->
      Machine.node_of machine (Machine.delinearize machine p))

(* One profile track per processor, named by its grid coordinate. *)
let name_proc_tracks sink ~pid machine =
  for proc = 0 to Machine.num_procs machine - 1 do
    Span.thread_name sink ~pid ~tid:proc
      (Printf.sprintf "proc %d %s" proc (Ints.to_string (Machine.delinearize machine proc)))
  done

(* The first owner on [node], or -1. *)
let rec same_node_owner node_of_lin node = function
  | [] -> -1
  | o :: os -> if node_of_lin.(o) = node then o else same_node_owner node_of_lin node os

(* {2 Recorded data operations} *)

(* The data path of one task, recorded during a planning probe. A task's
   control flow — instance footprints, communicate points, leaf schedule —
   depends only on the spec, never on tensor contents, so the simulation
   records every data operation and [run_plan], the one data path, replays
   them against tensor data with pooled buffers. Replaying (instead of
   re-simulating) is what makes the steady state of a compiled plan free
   of per-fragment allocation. *)
type drole =
  | R_input  (* instance of an input tensor: fill from the caller's data *)
  | R_output  (* zero-seeded output delta (owner-computes write or
                 reduction partial); the base value joins at merge time *)
  | R_read_out
      (* read-only instance of the output for self-referencing statements:
         fill from the caller's output data *)

type dslice = {
  ds_tensor : string;
  ds_local : Rect.t option;
      (* [None]: the leaf uses the whole cached instance. [Some local]: the
         instance covers more than this leaf execution touches — copy the
         [local] sub-box out and, for the output operand, write it back. *)
}

type dop =
  | D_inst of { tensor : string; rect : Rect.t; role : drole }
      (* materialize an instance at a communicate point *)
  | D_leaf of { denv : (string * int) array; slices : dslice list }
      (* run the leaf under the recorded launch/sequential-variable
         bindings; [slices] is the kernel-order slicing plan for
         substituted leaves (empty for scalar nests) *)
  | D_flush  (* the current output instance becomes a merge contribution *)

(* Per-step accumulators, preallocated per physical processor. One record
   per *active* step (a step some copy or compute touched), so the timing
   assembly walks flat arrays instead of hashing (step, proc) pairs and
   sorting the result. Copies are accumulated raw (one record per piece)
   and planned into groups at assembly time by [Comm_plan]. *)
type step_acc = {
  mutable raws : Comm_plan.raw list;
  cflops : float array;
  cbytes : float array;
  ctouch : bool array;
  send : float array;
  recv : float array;
  mtouch : bool array;
  mutable cross : float;  (* cross-rack bytes this step *)
}

let new_step_acc nprocs =
  {
    raws = [];
    cflops = Array.make nprocs 0.0;
    cbytes = Array.make nprocs 0.0;
    ctouch = Array.make nprocs false;
    send = Array.make nprocs 0.0;
    recv = Array.make nprocs 0.0;
    mtouch = Array.make nprocs false;
    cross = 0.0;
  }

(* The instruments step pricing feeds, registered once per run. *)
type step_obs = {
  m_messages : Metrics.counter;
  m_copy_groups : Metrics.counter;
  m_coalesced : Metrics.counter;
  m_plan_host : Metrics.counter;
  h_copy_bytes : Metrics.histogram;
  h_step_time : Metrics.histogram;
}

let step_obs reg =
  {
    m_messages = Metrics.counter reg "exec.messages";
    m_copy_groups = Metrics.counter reg "exec.copy_groups";
    m_coalesced = Metrics.counter reg "exec.coalesced_groups";
    (* Host CPU seconds spent planning communication (fragment
       coalescing, broadcast grouping and message pricing). Wall-clock
       observability only: like [exec.compute_wall_s] it never feeds
       events or simulated time, so determinism across pool sizes is
       untouched. The simperf bench reads it to compare the planner
       against the planner-off path without the noise of timing whole
       runs. *)
    m_plan_host = Metrics.counter reg "exec.plan_wall_s";
    h_copy_bytes = Metrics.histogram reg "exec.copy_bytes";
    h_step_time = Metrics.histogram reg "exec.step_time";
  }

(* Bundle planned transfers that carry the same payload from the same
   source into broadcast groups. [Comm_plan] sorts transfers by (tensor,
   src, payload, dst), so grouping is one linear scan; scanning from the
   end builds each group's receiver list in ascending destination order
   and the group list in transfer order.
   Payloads are usually shared sublists (the executor memoizes fetch
   plans), so the physical-equality check in [compare_rects] makes the
   scan cheap. *)
let group_transfers (xfers : Comm_plan.xfer list) =
  List.fold_left
    (fun groups (x : Comm_plan.xfer) ->
      match groups with
      | g :: _
        when g.src = x.src
             && String.equal g.tensor x.tensor
             && Comm_plan.compare_rects g.rects x.rects = 0 ->
          g.receivers <- (x.dst, x.link) :: g.receivers;
          groups
      | _ ->
          {
            tensor = x.tensor;
            rects = x.rects;
            fragments = x.fragments;
            src = x.src;
            bytes = 8.0 *. float_of_int x.volume;
            receivers = [ (x.dst, x.link) ];
          }
          :: groups)
    [] (List.rev xfers)

(* Post-planning observability: group counts, merged-run counts and
   per-message payload sizes are recorded after coalescing, so
   [exec.messages] counts wire messages, not raw fragments (raw traffic
   totals stay in [exec.bytes_intra]/[exec.bytes_inter], which planning
   never changes). *)
let observe_groups obs glist =
  List.iter
    (fun g ->
      Metrics.inc_int obs.m_copy_groups 1;
      if g.fragments > 1 then Metrics.inc_int obs.m_coalesced 1;
      let k = List.length g.receivers in
      Metrics.inc_int obs.m_messages k;
      for _ = 1 to k do
        Metrics.observe obs.h_copy_bytes g.bytes
      done)
    glist

(* Charge one step's copy groups into the per-processor send/recv occupancy
   arrays; returns (payload bytes moved, messages). A processor's two
   occupancies are later combined per the cost model's duplex mode.
   Broadcasts use the large-message collective model; a strided run
   additionally pays the packing cost on its endpoints. *)
let price_groups cost ~send ~recv ~mtouch glist =
  let bytes = ref 0.0 and messages = ref 0 in
  List.iter
    (fun g ->
      let k = List.length g.receivers in
      bytes := !bytes +. (g.bytes *. float_of_int k);
      messages := !messages + k;
      let pack = Cost.pack_time cost ~fragments:g.fragments in
      if k = 1 then begin
        let dst, link = List.hd g.receivers in
        let t =
          Cost.strided_copy_time cost link ~bytes:g.bytes ~fragments:g.fragments
        in
        recv.(dst) <- recv.(dst) +. t;
        mtouch.(dst) <- true;
        send.(g.src) <- send.(g.src) +. t;
        mtouch.(g.src) <- true
      end
      else begin
        (* A receiver's charges depend only on its link, so each is
           priced once per link kind. *)
        let part link =
          Cost.broadcast_participant_send cost link ~bytes:g.bytes ~receivers:k
        and bcast link = Cost.broadcast_time cost link ~bytes:g.bytes ~receivers:k in
        let send_intra = part Cost.Intra and send_inter = part Cost.Inter in
        let bcast_intra = bcast Cost.Intra and bcast_inter = bcast Cost.Inter in
        let inter = ref false in
        List.iter
          (fun (dst, link) ->
            let is_inter = link = Cost.Inter in
            if is_inter then inter := true;
            send.(dst) <- send.(dst) +. if is_inter then send_inter else send_intra;
            recv.(dst) <- recv.(dst) +. (if is_inter then bcast_inter else bcast_intra) +. pack;
            mtouch.(dst) <- true)
          g.receivers;
        send.(g.src) <- send.(g.src) +. (if !inter then bcast_inter else bcast_intra) +. pack;
        mtouch.(g.src) <- true
      end)
    glist;
  (!bytes, !messages)

(* One profile instant per wire message, on the receiver's track. *)
let emit_copy_instants sink ~pid ~ts glist =
  List.iter
    (fun g ->
      let k = List.length g.receivers in
      List.iter
        (fun (dst, link) ->
          Span.instant sink ~name:g.tensor ~cat:"copy" ~pid ~tid:dst ~ts
            ~attrs:
              [
                ("tensor", Event.Str g.tensor);
                ("piece", Event.Str (Comm_plan.describe g.rects));
                ("fragments", Event.Int g.fragments);
                ("src", Event.Int g.src);
                ("dst", Event.Int dst);
                ("bytes", Event.Float g.bytes);
                ( "link",
                  Event.Str
                    (match link with Cost.Intra -> "intra" | Cost.Inter -> "inter")
                );
                ("receivers", Event.Int k);
              ]
            ())
        g.receivers)
    glist

(* The one pricing of a bulk-synchronous step, shared by [execute] and
   [redistribute]. The step's raw fragments are planned into wire
   messages (merged into block transfers, or kept one per piece when
   [coalesce] is off) and identical payloads bundled into broadcasts;
   their occupancies, and the retransmissions and delays of any message
   faults, are charged to the endpoints. The step costs the max over
   processors of overlapped compute and communication, or the rack
   fabric's occupancy when that is larger. [kernel] prices leaf compute
   (see [execute_impl]); [msg_faults] is the injector and its counter
   when the fault plan has message faults. Returns the timeline row (with
   per-processor slots only when [profiling]) and the planned groups. *)
let price_step machine cost obs ~coalesce ~kernel ~msg_faults ~profiling ~step ~start a =
  let t_plan = Pool.now () in
  let plan = if coalesce then Comm_plan.coalesce a.raws else Comm_plan.uncoalesced a.raws in
  let glist = group_transfers plan in
  observe_groups obs glist;
  (* A processor's communication time in a step combines its send and
     receive occupancies per the cost model's duplex mode (full-duplex
     NICs overlap them; framebuffer DMA serializes them). *)
  let bytes, messages = price_groups cost ~send:a.send ~recv:a.recv ~mtouch:a.mtouch glist in
  Metrics.inc obs.m_plan_host (Pool.now () -. t_plan);
  (* Message faults: a matched drop costs its endpoints a retransmission
     (timeout + full resend), a matched delay holds the receiver back.
     Payload byte/message counts are untouched — the data still arrives,
     late. Purely plan-driven. *)
  (match msg_faults with
  | None -> ()
  | Some (inj, m_faults) ->
      List.iter
        (fun g ->
          List.iter
            (fun (dst, link) ->
              match Injector.msg_action inj ~step ~tensor:g.tensor ~src:g.src ~dst with
              | Some Fault.Drop ->
                  Metrics.inc_int m_faults 1;
                  let t =
                    Cost.retransmit_time cost link ~bytes:g.bytes ~fragments:g.fragments
                  in
                  a.send.(g.src) <- a.send.(g.src) +. t;
                  a.recv.(dst) <- a.recv.(dst) +. t;
                  a.mtouch.(g.src) <- true;
                  a.mtouch.(dst) <- true
              | Some (Fault.Delay d) ->
                  Metrics.inc_int m_faults 1;
                  a.recv.(dst) <- a.recv.(dst) +. d;
                  a.mtouch.(dst) <- true
              | None -> ())
            g.receivers)
        glist);
  let fabric =
    if a.cross > 0.0 then
      let racks = Ints.ceil_div (Machine.num_nodes machine) cost.Cost.rack_nodes in
      Cost.fabric_time cost ~cross_rack_bytes:a.cross ~racks
    else 0.0
  in
  let cost_step = ref fabric and slots = ref [] in
  for proc = Array.length a.send - 1 downto 0 do
    if a.ctouch.(proc) || a.mtouch.(proc) then begin
      let cmp =
        if a.ctouch.(proc) then
          match kernel with
          | Some k ->
              Cost.leaf_compute_time cost ~kernel:k ~flops:a.cflops.(proc)
                ~bytes_touched:a.cbytes.(proc)
          | None -> Cost.compute_time cost ~flops:a.cflops.(proc) ~bytes_touched:a.cbytes.(proc)
        else 0.0
      in
      let cm =
        if a.mtouch.(proc) then Cost.combine_sr cost ~send:a.send.(proc) ~recv:a.recv.(proc)
        else 0.0
      in
      let busy = Cost.step_time cost ~compute:cmp ~comm:cm in
      cost_step := Float.max !cost_step busy;
      if profiling then slots := { Cp.proc; compute = cmp; comm = cm; busy } :: !slots
    end
  done;
  Metrics.observe obs.h_step_time !cost_step;
  ( { Cp.index = step; start; cost = !cost_step; slots = !slots; bytes; messages; fabric },
    glist )

(* A priced step's processor tracks: a compute span (with the flops and
   bytes it touched) and the exposed part of the communication on each
   busy processor, then one instant per wire message. *)
let emit_step sink ~pid (row : Cp.step) a glist =
  List.iter
    (fun (sl : Cp.slot) ->
      let proc = sl.Cp.proc in
      if sl.Cp.compute > 0.0 then
        Span.complete sink ~name:"compute" ~cat:"compute" ~pid ~tid:proc ~ts:row.Cp.start
          ~dur:sl.Cp.compute
          ~attrs:
            [
              ("flops", Event.Float a.cflops.(proc));
              ("bytes_touched", Event.Float a.cbytes.(proc));
            ]
          ();
      let exposed = sl.Cp.busy -. sl.Cp.compute in
      if exposed > 0.0 then
        Span.complete sink ~name:"comm" ~cat:"comm" ~pid ~tid:proc
          ~ts:(row.Cp.start +. sl.Cp.compute) ~dur:exposed
          ~attrs:[ ("occupancy", Event.Float sl.Cp.comm) ]
          ())
    row.Cp.slots;
  emit_copy_instants sink ~pid ~ts:row.Cp.start glist

(* Raw fragments per wire message (1.0 when no data moved, or when
   nothing merged). *)
let set_coalesce_ratio reg ~fragments ~messages =
  Metrics.set
    (Metrics.gauge reg "exec.coalesce_ratio")
    (if messages > 0 then float_of_int fragments /. float_of_int messages else 1.0)

(* Per-statement operation count per iteration-space point: one per binary
   operator plus the reduction accumulate. *)
let ops_per_point (stmt : Expr.stmt) =
  let rec count = function
    | Expr.Access _ | Expr.Const _ -> 0
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) -> 1 + count a + count b
  in
  let c = count stmt.rhs + if Expr.reduction_vars stmt <> [] then 1 else 0 in
  max 1 c

(* What one simulation hands its caller: the modeled stats, the recorded
   data operations per launch point (empty unless [record]), and the leaf
   it validated — the substituted kernel with its operand order, or the
   scalar loop variables. *)
type sim = {
  sim_stats : Stats.t;
  sim_dops : dop list array;
  sim_named : (string * string list) option;
  sim_leaf_vars : string list;
}

(* The simulator: prices the program on the cost model without touching
   tensor data. [Model]-mode [execute] is this alone; [Full]-mode
   [execute] is this with [record] on (a compiled plan) followed by
   [run_plan]. *)
let execute_impl ?(coalesce = true) ?domains ?(record = false) ?trace ?profile
    ?faults spec =
  (* Register this execution as a run of the profile (its own pid, metrics
     registry and timeline slot). Without a profile the registry is private
     to this call; either way it is the single accumulator the final
     [Stats.t] view derives from. *)
  let prun = Option.map (fun p -> Profile.begin_run ~fallback:"execute" p) profile in
  let reg =
    match prun with Some r -> r.Profile.metrics | None -> Metrics.create ()
  in
  let wall_start = Pool.now () in
  let alloc0 = alloc_words () in
  let m_flops = Metrics.counter reg "exec.flops" in
  let m_bytes_intra = Metrics.counter reg "exec.bytes_intra" in
  let m_bytes_inter = Metrics.counter reg "exec.bytes_inter" in
  let m_tasks = Metrics.counter reg "exec.tasks" in
  let obs = step_obs reg in
  let prog = spec.program in
  let stmt = prog.stmt in
  let prov = prog.prov in
  let machine = spec.machine in
  let cost = spec.cost in
  let out_name = stmt.lhs.tensor in
  (* A statement whose output tensor also appears on the right-hand side
     (e.g. [A(i,j) = A(i,j) + B(i,j)]) reads the caller's value of the
     output, exactly as [serial_reference] does: those reads come from a
     separate, immutable instance, never from the buffer being written. *)
  let reads_out = Expr.reads_output stmt in
  let tensors = Expr.tensors stmt in
  (* Distributions (and index task launches) may target a virtual grid
     larger than the machine; virtual processors fold onto physical ones
     exactly as the mapper folds launch points. *)
  let vmachine =
    match spec.virtual_grid with
    | None -> machine
    | Some dims ->
        Machine.grid ~kind:(Machine.kind machine)
          ~mem_per_proc:(Machine.mem_per_proc_bytes machine) dims
  in
  let nprocs_phys = Machine.num_procs machine in
  (* Validate distributions. *)
  let* dists =
    List.fold_left
      (fun acc tn ->
        let* acc = acc in
        match List.assoc_opt tn spec.dists with
        | None -> errf "no distribution given for tensor %s" tn
        | Some d -> (
            let rank = Array.length (Taskir.shape_of prog tn) in
            match Distnot.validate d ~tensor_rank:rank ~machine:vmachine with
            | Ok () -> Ok ((tn, d) :: acc)
            | Error e -> errf "invalid distribution for %s: %s" tn e))
      (Ok []) tensors
  in
  let rec leaf_of = function
    | Taskir.Launch { body; _ } | Seq_loop { body; _ } | Ensure { body; _ } ->
        leaf_of body
    | Leaf l -> l
  in
  let leaf = leaf_of prog.tree in
  let* named_order =
    match leaf with
    | Taskir.Scalar_loops _ -> Ok None
    | Named { kernel; _ } ->
        let* order = Kernel_match.check stmt ~kernel in
        Ok (Some (kernel, order))
  in
  let* () =
    match named_order with
    | Some _ when reads_out ->
        errf "substituted kernels cannot read their output tensor %s" out_name
    | _ -> Ok ()
  in
  (* The kernel leaf compute is priced as: the substituted kernel when the
     tree names one, else the kernel the statement structurally matches.
     The latter covers unsubstituted leaves, which the registry also runs
     at native speed through staged dispatch — and, crucially, it depends
     only on the spec (never on the domain count), so modeled time keeps
     the determinism contract. *)
  let priced_kernel =
    match named_order with
    | Some (k, _) -> Some k
    | None -> Kernel_match.infer stmt
  in
  let lvars, ldims = Taskir.launch prog in
  let rec seq_loops = function
    | Taskir.Launch { body; _ } | Ensure { body; _ } -> seq_loops body
    | Seq_loop { var; extent; body } -> (var, extent) :: seq_loops body
    | Leaf _ -> []
  in
  let seqs = seq_loops prog.tree in
  let seq_vars = Array.of_list (List.map fst seqs) in
  let seq_dims = Array.of_list (List.map snd seqs) in
  let seq_strides = Ints.row_major_strides seq_dims in
  let nsteps = max 1 (Ints.prod seq_dims) in
  (* {3 Fault plan resolution} *)
  (* An absent or empty plan (no events, checkpointing off) takes the
     identity path everywhere below: no injector, no checkpoint store, no
     fault metrics — results, traces, stats and event streams are
     byte-identical to an executor without fault support. *)
  let fplan = match faults with Some f -> f | None -> Fault.empty in
  let* inj =
    if Fault.is_empty fplan then Ok None
    else
      match Injector.create fplan ~nprocs:nprocs_phys ~nsteps with
      | Ok i -> Ok (Some i)
      | Error e -> errf "invalid fault plan: %s" e
  in
  let checkpointing =
    match inj with Some i -> Injector.checkpointing i | None -> false
  in
  let have_kills = match inj with Some i -> Injector.has_kills i | None -> false in
  (* Fault instruments exist only when a plan is active, so inactive runs
     register nothing new. *)
  let m_faults_injected, m_replayed_steps, m_ckpt_bytes, m_restore_bytes =
    match inj with
    | None -> (None, None, None, None)
    | Some _ ->
        ( Some (Metrics.counter reg "exec.faults_injected"),
          Some (Metrics.counter reg "exec.replayed_steps"),
          Some (Metrics.counter reg "exec.checkpoint_bytes"),
          Some (Metrics.counter reg "exec.restore_bytes") )
  in
  let msg_faults =
    match (inj, m_faults_injected) with
    | Some i, Some m when fplan.Fault.messages <> [] -> Some (i, m)
    | _ -> None
  in
  let inc_opt m v = match m with Some m -> Metrics.inc m v | None -> () in
  let inc_opt_int m v = match m with Some m -> Metrics.inc_int m v | None -> () in
  let ckpt =
    if checkpointing then Some (Checkpoint.create ~merge:Comm_plan.merge_rects)
    else None
  in
  let nprocs = Machine.num_procs machine in
  (* Per-linear-processor node and rack ids: link and rack decisions in the
     walk are plain array lookups instead of coordinate arithmetic. *)
  let node_of_lin = nodes_of_procs machine in
  let rack_of_lin = Array.map (fun n -> n / cost.Cost.rack_nodes) node_of_lin in
  let link_of src dst =
    if node_of_lin.(src) = node_of_lin.(dst) then Cost.Intra else Cost.Inter
  in
  (* Placement under faults: effects landing on a processor that is dead
     at their step execute on its failover target instead
     ({!Mapper.fallback} — the next live linear processor, which also
     holds the checkpoint replica). Transfers whose endpoints collapse to
     the same processor after remapping become local and disappear.
     Fault-free runs take the identity path. *)
  let remap =
    match inj with
    | Some i when have_kills ->
        fun ~step p ->
          if Injector.dead i ~step ~proc:p then
            Mapper.fallback ~nprocs
              ~dead:(fun q -> Injector.dead i ~step ~proc:q)
              p
          else p
    | _ -> fun ~step:_ p -> p
  in
  (* Folding a virtual owner to a physical linear index needs no coordinate
     round-trip: delinearize and linearize on the same machine cancel. *)
  let lin_of_virtual =
    if spec.virtual_grid = None then Machine.linearize machine
    else fun vc -> Machine.linearize vmachine vc mod nprocs_phys
  in
  (* {3 Tensor geometry} *)
  (* Tensors are addressed by their index in [tensors_a] from here on:
     instance caches, footprint sites and traffic counters are arrays. *)
  let tensors_a = Array.of_list tensors in
  let ntensors = Array.length tensors_a in
  let tensor_index tn = name_index tensors_a tn 0 in
  let out_t = tensor_index out_name in
  (* Per-operand traffic breakdown for the utilization report. Counters are
     registered up front so zero-traffic operands still show up. *)
  let m_bytes_t =
    Array.map (fun tn -> Metrics.counter reg ("exec.bytes_by_tensor." ^ tn)) tensors_a
  in
  (* Per tensor: a spatial index over the distribution's tiles (cyclic
     distributions produce many) and the tiles each physical processor
     owns (several under over-decomposition). Owners are physical linear
     indices. Tensors sharing a distribution and shape (e.g. both GEMM
     operands cyclic over the same grid) share one tile sweep, index and
     owned-tile table — the index is read-only under query interleaving. *)
  let geom_memo : (string, int list Rect_index.t * Rect.t list array) Hashtbl.t =
    Hashtbl.create 8
  in
  let geom =
    Array.map
      (fun tn ->
        let shape = Taskir.shape_of prog tn in
        let dist = List.assoc tn dists in
        let key = Distnot.to_string dist ^ "|" ^ Ints.to_string shape in
        match Hashtbl.find_opt geom_memo key with
        | Some g -> g
        | None ->
            let vtiles = Distnot.tiles dist ~shape ~machine:vmachine in
            let dedup owners =
              match owners with
              | [ o ] -> [ lin_of_virtual o ]
              | _ ->
                  List.fold_left
                    (fun acc o ->
                      let l = lin_of_virtual o in
                      if List.mem l acc then acc else l :: acc)
                    [] owners
                  |> List.rev
            in
            let index =
              Rect_index.build (List.map (fun (r, owners) -> (r, dedup owners)) vtiles)
            in
            (* The owned-tile lists fall out of the same tile sweep ([tiles]
               already ran [rects_of_proc] for every virtual processor). *)
            let rects = Array.make nprocs [] in
            List.iter
              (fun (r, owners) ->
                List.iter
                  (fun vc ->
                    let p = lin_of_virtual vc in
                    rects.(p) <- r :: rects.(p))
                  owners)
              vtiles;
            let g = (index, rects) in
            Hashtbl.add geom_memo key g;
            g)
      tensors_a
  in
  let index_t = Array.map fst geom and proc_rects_t = Array.map snd geom in
  (* {3 Slot environment and footprint sites} *)
  (* The walk binds launch variables (from the point) and sequential loop
     variables (outermost first), nothing else. Each gets an integer
     slot; a task's environment is an int array over slots, -1 where
     unbound. Footprints and intervals are compiled against the slots
     once, so no name is looked up per task step. *)
  let nlaunch = List.length lvars in
  let slot_vars = Array.append (Array.of_list lvars) seq_vars in
  let slot_ext = Array.append ldims seq_dims in
  let nslots = Array.length slot_vars in
  let slot_tbl = Hashtbl.create 16 in
  Array.iteri (fun s v -> Hashtbl.replace slot_tbl v s) slot_vars;
  let slot = Hashtbl.find_opt slot_tbl in
  let bound = Array.init nslots (fun s -> s < nlaunch) in
  let keyer vars =
    let slots =
      List.concat_map (Provenance.deps prov) vars
      |> List.filter_map (fun v ->
             match Hashtbl.find_opt slot_tbl v with
             | Some s when bound.(s) -> Some s
             | _ -> None)
      |> List.sort_uniq compare |> Array.of_list
    in
    let strides = Array.make (Array.length slots) 1 in
    for i = Array.length slots - 2 downto 0 do
      strides.(i) <- strides.(i + 1) * slot_ext.(slots.(i + 1))
    done;
    { k_slots = slots; k_strides = strides }
  in
  let access_vars t =
    List.concat_map
      (fun (a : Expr.access) -> if String.equal a.tensor tensors_a.(t) then a.indices else [])
      (Expr.stmt_accesses stmt)
    |> List.sort_uniq compare
  in
  (* Footprint sites: one per [Ensure], plus one per tensor at the leaf
     (the slicing plan a recording run captures). *)
  let footprint_fns =
    Array.map
      (fun tn -> Bounds.footprint_fn prov ~slot ~stmt ~shape:(Taskir.shape_of prog tn) tn)
      tensors_a
  in
  let rev_sites = ref [] and nsites = ref 0 in
  let new_site t =
    rev_sites := (t, keyer (access_vars t)) :: !rev_sites;
    incr nsites;
    !nsites - 1
  in
  let leaf_site = Array.make ntensors (-1) in
  let rec compile = function
    | Taskir.Launch { body; _ } -> compile body
    | Seq_loop { var; extent; body } ->
        let slot = Hashtbl.find slot_tbl var in
        bound.(slot) <- true;
        N_seq { slot; extent; body = compile body }
    | Ensure { tensor; body } ->
        let t = tensor_index tensor in
        let site = new_site t in
        N_ensure { t; site; body = compile body }
    | Leaf _ ->
        Array.iteri (fun t _ -> leaf_site.(t) <- new_site t) leaf_site;
        N_leaf
  in
  let tree = compile prog.tree in
  let sites = Array.of_list (List.rev !rev_sites) in
  (* The leaf's iteration count is a product of per-variable interval
     lengths, each keyed by the slots that variable depends on. *)
  let ivars = Array.of_list (Expr.index_vars stmt) in
  let ikeys = Array.map (fun v -> keyer [ v ]) ivars in
  let ifns = Array.map (Provenance.interval_fn prov ~slot) ivars in
  (* Per-lane working state: every mutable cache a task probe touches.
     Each pool lane builds its own, so concurrent tasks never share
     mutable state; within a lane, tasks hit the same memos a serial run
     would. A footprint reached under different keys (or at different
     sites) resolves to one entry per (tensor, rect), so its fetch plan is
     built once per lane. *)
  let make_lane () =
    {
      cursor = Rect_index.cursor ();
      sites = Array.map (fun _ -> Ints.Tbl.create 64) sites;
      by_rect = Array.map (fun _ -> Rect.Tbl.create 64) tensors_a;
      ivals = Array.map (fun _ -> Ints.Tbl.create 16) ivars;
      env = Array.make nslots (-1);
      tape = { fx = [||]; len = 0; nums = [||]; nnums = 0 };
    }
  in
  (* Reduction mode: some distributed loop variable derives from a
     variable summed over (§3.3: "distributing variables used for
     reductions results in distributed reductions into the output"). *)
  let reduction =
    let red_roots = Expr.reduction_vars stmt in
    List.exists
      (fun lv -> List.exists (fun r -> Provenance.derives_from prov lv ~root:r) red_roots)
      lvars
  in
  (* Event log: one preallocated accumulator per active step. *)
  let steps_acc : step_acc option array = Array.make nsteps None in
  let acc_of step =
    match steps_acc.(step) with
    | Some a -> a
    | None ->
        let a = new_step_acc nprocs in
        steps_acc.(step) <- Some a;
        a
  in
  let red_contribs : (float * int list) Rect.Tbl.t = Rect.Tbl.create 16 in
  let add_compute ~step ~proc ~flops ~bytes =
    let a = acc_of step in
    a.cflops.(proc) <- a.cflops.(proc) +. flops;
    a.cbytes.(proc) <- a.cbytes.(proc) +. bytes;
    a.ctouch.(proc) <- true;
    Metrics.inc m_flops flops
  in
  (* Record one batch of fragments moving src -> dst: traffic metrics and
     cross-rack accounting see the raw bytes (planning never changes
     totals); the batch itself is planned into wire messages at assembly
     time. Trace consumers still see one event per fragment. *)
  let add_batch ~step (raw : Comm_plan.raw) =
    let p = raw.payload in
    if p.volume > 0 then begin
      let a = acc_of step in
      let bytes = 8.0 *. float_of_int p.volume in
      a.raws <- raw :: a.raws;
      (match raw.link with
      | Cost.Intra -> Metrics.inc m_bytes_intra bytes
      | Cost.Inter -> Metrics.inc m_bytes_inter bytes);
      Metrics.inc m_bytes_t.(tensor_index p.tensor) bytes;
      if rack_of_lin.(raw.src) <> rack_of_lin.(raw.dst) then a.cross <- a.cross +. bytes;
      match trace with
      | Some log ->
          let src = Machine.delinearize machine raw.src in
          let dst = Machine.delinearize machine raw.dst in
          List.iter
            (fun piece ->
              log :=
                { step; tensor = p.tensor; piece; src; dst; bytes = bytes_of_rect piece }
                :: !log)
            p.pieces
      | None -> ()
    end
  in
  (* Static per-processor memory: owned tiles of every tensor. *)
  let static_mem = Array.make nprocs 0.0 in
  Array.iter
    (fun rects ->
      Array.iteri
        (fun p rs ->
          List.iter (fun r -> static_mem.(p) <- static_mem.(p) +. bytes_of_rect r) rs)
        rects)
    proc_rects_t;
  let dyn_peak = Array.make nprocs 0.0 in
  (* {3 Per-task walk} *)
  let ops = ops_per_point stmt in
  let rec mem_int (x : int) = function [] -> false | y :: ys -> x = y || mem_int x ys in
  let run_task lane ?drec (point : int array) =
    let proc_coord = Mapper.proc_of_point machine ~launch_dims:ldims point in
    let proc = Machine.linearize machine proc_coord in
    let env = lane.env and cursor = lane.cursor and tape = lane.tape in
    Array.fill env 0 nslots (-1);
    Array.blit point 0 env 0 nlaunch;
    let fx_lo = tape.len in
    let emit e = push tape e in
    (* Data-op recording (plan compilation). Reset on entry so a kill
       replay of this point rewrites an identical list. *)
    (match drec with Some r -> r := [] | None -> ());
    let demit d = match drec with Some r -> r := d :: !r | None -> () in
    let step_of () =
      let s = ref 0 in
      for i = 0 to Array.length seq_strides - 1 do
        let x = env.(nlaunch + i) in
        if x >= 0 then s := !s + (x * seq_strides.(i))
      done;
      !s
    in
    (* The footprint a site needs under the current bindings. *)
    let entry site =
      let t, k = sites.(site) in
      let tbl = lane.sites.(site) in
      let key = key_of k env in
      match Ints.Tbl.find tbl key with
      | e -> e
      | exception Not_found ->
          let rect = footprint_fns.(t) env in
          let e =
            match Rect.Tbl.find lane.by_rect.(t) rect with
            | e -> e
            | exception Not_found ->
                let e =
                  { f_rect = rect; f_bytes = bytes_of_rect rect; f_plan = None }
                in
                Rect.Tbl.add lane.by_rect.(t) rect e;
                e
          in
          Ints.Tbl.add tbl key e;
          e
    in
    (* Cached instances, one per tensor ([no_inst] when absent), and
       whether each counts against dynamic memory (instances of
       locally-owned tiles alias the owned data). [out_read] is the
       read-only instance of the output for self-referencing statements,
       kept apart from the write instance. *)
    let no_inst = { f_rect = Rect.full [||]; f_bytes = 0.0; f_plan = None } in
    let inst = Array.make ntensors no_inst and counted_t = Array.make ntensors false in
    let out_read = ref no_inst and out_read_counted = ref false in
    (* [mem.(0)] live dynamic bytes, [mem.(1)] their peak. *)
    let mem = Array.make 2 0.0 in
    let grow bytes =
      mem.(0) <- mem.(0) +. bytes;
      if mem.(0) > mem.(1) then mem.(1) <- mem.(0)
    in
    let shrink bytes = mem.(0) <- mem.(0) -. bytes in
    let proc_owns t rect = within rect proc_rects_t.(t).(proc) in
    let pieces_of t e = Rect_index.query ~cursor index_t.(t) e.f_rect in
    (* The entry's fetch plan: its pieces grouped by owner set, each
       group pre-merged ([Comm_plan.merge_rects]). For cyclic
       distributions this is where thousands of per-piece decisions
       collapse into a handful of per-owner batches. *)
    let plan_of t e =
      match e.f_plan with
      | Some plan -> plan
      | None ->
          let rec same_owners (a : int list) (b : int list) =
            match (a, b) with
            | [], [] -> true
            | x :: xs, y :: ys -> x = y && same_owners xs ys
            | _ -> false
          in
          let groups : (int list * Rect.t list ref * int ref) list ref = ref [] in
          List.iter
            (fun (piece, owners) ->
              match List.find_opt (fun (os, _, _) -> same_owners os owners) !groups with
              | Some (_, ps, vol) ->
                  ps := piece :: !ps;
                  vol := !vol + Rect.volume piece
              | None -> groups := (owners, ref [ piece ], ref (Rect.volume piece)) :: !groups)
            (pieces_of t e);
          let plan =
            List.rev_map
              (fun (os, ps, vol) ->
                let pieces = List.rev !ps in
                {
                  fg_owners = os;
                  fg_load =
                    {
                      tensor = tensors_a.(t);
                      pieces;
                      merged = Comm_plan.merge_rects pieces;
                      nfrag = List.length pieces;
                      volume = !vol;
                    };
                })
              !groups
          in
          e.f_plan <- Some plan;
          plan
    in
    (* Fetch cost: groups the processor itself owns are free, the rest
       become one fragment batch each (same-node owners preferred). *)
    let rec fetch_groups step = function
      | [] -> ()
      | g :: gs ->
          if not (mem_int proc g.fg_owners) then begin
            let src =
              match same_node_owner node_of_lin node_of_lin.(proc) g.fg_owners with
              | -1 -> List.hd g.fg_owners
              | o -> o
            in
            emit
              (Fx_batch
                 { step; raw = { payload = g.fg_load; src; dst = proc; link = link_of src proc } })
          end;
          fetch_groups step gs
    in
    let charge_fetch t e = fetch_groups (step_of ()) (plan_of t e) in
    let flush_output ~step e =
      demit D_flush;
      if reduction then emit (Fx_red { step; rect = e.f_rect })
      else begin
        if not (proc_owns out_t e.f_rect) then
          (* Owner-computes with a remote owner: ship the tile home. *)
          List.iter
            (fun (piece, os) ->
              let dst = List.hd os in
              if dst <> proc then
                emit
                  (Fx_batch
                     { step;
                       raw =
                         Comm_plan.batch ~tensor:out_name ~src:proc ~dst
                           ~link:(link_of proc dst) [ piece ] }))
            (pieces_of out_t e);
        emit (Fx_out { step; rect = e.f_rect })
      end
    in
    let ensure t site =
      let e = entry site in
      let cur = inst.(t) in
      let fresh =
        if cur == no_inst then true
        else if Rect.equal cur.f_rect e.f_rect then false
        else begin
          if t = out_t then flush_output ~step:(step_of ()) cur;
          if counted_t.(t) then shrink cur.f_bytes;
          inst.(t) <- no_inst;
          true
        end
      in
      if fresh then begin
        let bytes = e.f_bytes in
        (* An instance of a locally-owned subrect aliases the owned tile;
           reduction partials for the output are fresh allocations. *)
        let counted = (t = out_t && reduction) || not (proc_owns t e.f_rect) in
        if counted then grow bytes;
        if t = out_t then begin
          (* Reduction partials start at zero; stationary/owner-computes
             outputs are seeded with current values (which only costs
             communication when the statement accumulates into — or reads —
             a tensor this processor does not own). *)
          if ((not reduction) && stmt.accum) || reads_out then charge_fetch t e
        end
        else charge_fetch t e;
        inst.(t) <- e;
        counted_t.(t) <- counted;
        if Option.is_some drec then
          demit
            (D_inst
               {
                 tensor = tensors_a.(t);
                 rect = e.f_rect;
                 role = (if t = out_t then R_output else R_input);
               });
        if t = out_t && reads_out then begin
          if !out_read != no_inst then begin
            if !out_read_counted then shrink !out_read.f_bytes;
            out_read := no_inst
          end;
          let counted_r = not (proc_owns t e.f_rect) in
          if counted_r then grow bytes;
          out_read := e;
          out_read_counted := counted_r;
          demit (D_inst { tensor = out_name; rect = e.f_rect; role = R_read_out })
        end
      end
    in
    let exec_leaf () =
      let step = step_of () in
      (* Leaf iteration count: a product of per-variable interval lengths. *)
      let points = ref 1.0 in
      for i = 0 to Array.length ivars - 1 do
        let tbl = lane.ivals.(i) and key = key_of ikeys.(i) env in
        let len =
          match Ints.Tbl.find tbl key with
          | len -> len
          | exception Not_found ->
              let lo, hi = ifns.(i) env in
              let len = float_of_int (Int.max 0 (hi - lo)) in
              Ints.Tbl.add tbl key len;
              len
        in
        points := !points *. len
      done;
      let bytes = ref 0.0 in
      for t = 0 to ntensors - 1 do
        if inst.(t) != no_inst then bytes := !bytes +. inst.(t).f_bytes
      done;
      if !out_read != no_inst then bytes := !bytes +. !out_read.f_bytes;
      let at = tape.nnums in
      if at + 2 > Array.length tape.nums then begin
        let a = Array.make ((2 * at) + 64) 0.0 in
        Array.blit tape.nums 0 a 0 at;
        tape.nums <- a
      end;
      tape.nums.(at) <- float_of_int ops *. !points;
      tape.nums.(at + 1) <- !bytes;
      tape.nnums <- at + 2;
      emit (Fx_compute { step; at });
      (* Recording: snapshot the variable bindings the leaf runs under
         (launch + sequential vars — leaf vars are bound inside) and, for
         substituted kernels, the slicing plan relative to the cached
         instances. Both depend only on the spec, never on tensor data. *)
      if Option.is_some drec then begin
        let slice tn =
          let t = tensor_index tn in
          let r = inst.(t).f_rect in
          if inst.(t) == no_inst then invalid_arg ("leaf recorded without an instance of " ^ tn);
          let need = (entry leaf_site.(t)).f_rect in
          if Rect.equal need r then { ds_tensor = tn; ds_local = None }
          else if not (Rect.subset need r) then
            invalid_arg ("leaf footprint outside the instance of " ^ tn)
          else
            let rel = Array.mapi (fun d x -> x - r.Rect.lo.(d)) in
            {
              ds_tensor = tn;
              ds_local = Some (Rect.make ~lo:(rel need.Rect.lo) ~hi:(rel need.Rect.hi));
            }
        in
        let slices =
          match named_order with None -> [] | Some (_, order) -> List.map slice order
        in
        demit (D_leaf { denv = Array.init nslots (fun s -> (slot_vars.(s), env.(s))); slices })
      end
    in
    let rec walk = function
      | N_seq { slot; extent; body } ->
          for x = 0 to extent - 1 do
            env.(slot) <- x;
            walk body
          done;
          env.(slot) <- -1
      | N_ensure { t; site; body } ->
          ensure t site;
          walk body
      | N_leaf -> exec_leaf ()
    in
    walk tree;
    (* Flush the cached output instance (write-back or reduction). The
       sequential loop vars are gone by now, so attribute the flush to the
       final step explicitly — it is the step whose end produced this
       state (matters only to fault remapping and checkpoints). *)
    if inst.(out_t) != no_inst then flush_output ~step:(nsteps - 1) inst.(out_t);
    (match drec with Some r -> r := List.rev !r | None -> ());
    { tr_proc = proc; tr_tape = tape; tr_lo = fx_lo; tr_hi = tape.len; tr_dyn_max = mem.(1) }
  in
  let points =
    if Array.length ldims = 0 then [| [||] |]
    else
      Array.of_list
        (List.rev (Ints.fold_box ldims ~init:[] ~f:(fun acc c -> c :: acc)))
  in
  let npoints = Array.length points in
  (* One recording slot per launch point, when a plan compilation asked
     for them. *)
  let drecs = if record then Array.init npoints (fun _ -> ref []) else [||] in
  let drec_of i = if record then Some drecs.(i) else None in
  (* {3 Parallel probe, serial merge} *)
  (* Launch points are independent by construction (the distribution
     partitions the output), so lanes probe contiguous point ranges
     concurrently; each result slot is written by exactly one lane, and
     the pool join orders those writes before the merge below. Simulated
     time never depends on the lane count: it is assembled from the
     replayed effects, not from host timing. *)
  let pool = Pool.get ?size:domains () in
  let lanes = max 1 (min (Pool.size pool) npoints) in
  let results : task_result option array = Array.make npoints None in
  let lane_busy = Array.make lanes 0.0 in
  (* Per lane: the words it allocated and the domain it ran on, measured
     inside the lane (GC counters are per domain). *)
  let lane_alloc = Array.make lanes (0.0, 0.0) and lane_domain = Array.make lanes 0 in
  let wall0 = Pool.now () in
  Pool.run pool ~lanes (fun lane ->
      let t0 = Pool.now () in
      let minor0, major0 = alloc_words () in
      let ctx = make_lane () in
      let lo = lane * npoints / lanes and hi = (lane + 1) * npoints / lanes in
      for i = lo to hi - 1 do
        results.(i) <- Some (run_task ctx ?drec:(drec_of i) points.(i))
      done;
      let minor1, major1 = alloc_words () in
      lane_alloc.(lane) <- (minor1 -. minor0, major1 -. major0);
      lane_domain.(lane) <- (Domain.self () :> int);
      lane_busy.(lane) <- Pool.now () -. t0);
  let compute_wall = Pool.now () -. wall0 in
  (* Host-side wall clock of the probe phase (not simulated time), plus
     pool shape and utilization. Gauges only: these never enter the event
     stream or the derived [Stats.t], so runs stay byte-identical across
     domain counts. *)
  Metrics.set (Metrics.gauge reg "exec.setup_wall_s") (wall0 -. wall_start);
  Metrics.set (Metrics.gauge reg "exec.compute_wall_s") compute_wall;
  Metrics.set (Metrics.gauge reg "exec.pool_domains") (float_of_int lanes);
  Metrics.set
    (Metrics.gauge reg "exec.pool_utilization")
    (if compute_wall > 0.0 then
       Array.fold_left ( +. ) 0.0 lane_busy /. (float_of_int lanes *. compute_wall)
     else 1.0);
  let merge0 = Pool.now () in
  (* {3 Replay after kills} *)
  (* A killed processor loses its in-flight task state, so every launch
     point it was executing is re-probed from scratch — [run_task] is
     deterministic, so the replayed effects (and recorded data ops) are
     exactly the originals, and the merge below charges them to the
     failover processor via [remap]. The simulated cost of this replay is
     priced in the recovery epilogue. *)
  (match inj with
  | Some i when have_kills ->
      let ctx = make_lane () in
      Array.iteri
        (fun idx r ->
          let proc = (Option.get r).tr_proc in
          if Injector.ever_dead i ~proc then
            results.(idx) <- Some (run_task ctx ?drec:(drec_of idx) points.(idx)))
        results
  | _ -> ());
  (* Replay every task's deferred effects in launch-point order: metrics,
     traces, step accumulators, checkpoints and reduction bookkeeping
     observe exactly the sequence a serial execution produces. *)
  Array.iter
    (fun r ->
      let { tr_proc = proc; tr_tape; tr_lo; tr_hi; tr_dyn_max } = Option.get r in
      Metrics.inc_int m_tasks 1;
      for i = tr_lo to tr_hi - 1 do
        match tr_tape.fx.(i) with
        | Fx_compute { step; at } ->
            add_compute ~step ~proc:(remap ~step proc) ~flops:tr_tape.nums.(at)
              ~bytes:tr_tape.nums.(at + 1)
        | Fx_batch { step; raw } ->
            let src = remap ~step raw.src and dst = remap ~step raw.dst in
            if src <> dst then
              add_batch ~step
                (if src = raw.src && dst = raw.dst then raw
                 else { raw with src; dst; link = link_of src dst })
        | Fx_red { step; rect } -> (
            let rproc = remap ~step proc in
            (match ckpt with
            | Some c when not (Rect.is_empty rect) ->
                Checkpoint.record c ~step ~proc:rproc rect
            | _ -> ());
            (match Rect.Tbl.find_opt red_contribs rect with
            | Some (b, procs) ->
                (* Under kills, remapping can fold two contributors onto
                   one survivor; count it once. Fault-free, keep every
                   contribution exactly as before. *)
                if not (have_kills && List.mem rproc procs) then
                  Rect.Tbl.replace red_contribs rect (b, rproc :: procs)
            | None ->
                Rect.Tbl.add red_contribs rect (bytes_of_rect rect, [ rproc ])))
        | Fx_out { step; rect } -> (
            match ckpt with
            | Some c when not (Rect.is_empty rect) ->
                Checkpoint.record c ~step ~proc:(remap ~step proc) rect
            | _ -> ())
      done;
      if tr_dyn_max > dyn_peak.(proc) then dyn_peak.(proc) <- tr_dyn_max)
    results;
  let assembly0 = Pool.now () in
  Metrics.set (Metrics.gauge reg "exec.merge_wall_s") (assembly0 -. merge0);
  (* {3 Timing assembly} *)
  (* Deterministic order throughout this phase: steps ascending, copy
     groups sorted by key within each step, processors ascending — so two
     runs of the same spec produce identical event streams and
     bit-identical times. Everything is read
     off the flat per-step accumulators; no (step, proc) hashing. *)
  let tasks_per_proc = Ints.ceil_div npoints nprocs in
  let overhead = float_of_int tasks_per_proc *. cost.Cost.task_overhead in
  let start = ref overhead in
  (* Per-processor slots and planned copy groups only feed the profile's
     timeline and events; without a profile the step cost (the max over
     processors, which any order computes exactly) is all that is kept. *)
  let profiling = Option.is_some prun in
  let groups_of_step = Array.make nsteps [] in
  let total_fragments = ref 0 and total_messages = ref 0 in
  let rev_rows = ref [] in
  for step = 0 to nsteps - 1 do
    match steps_acc.(step) with
    | None -> ()
    | Some a ->
        let row, glist =
          price_step machine cost obs ~coalesce ~kernel:priced_kernel ~msg_faults ~profiling
            ~step ~start:!start a
        in
        if profiling then groups_of_step.(step) <- glist;
        total_fragments :=
          List.fold_left
            (fun acc (r : Comm_plan.raw) -> acc + r.payload.nfrag)
            !total_fragments a.raws;
        total_messages := !total_messages + row.Cp.messages;
        start := !start +. row.Cp.cost;
        rev_rows := row :: !rev_rows
  done;
  let step_rows = List.rev !rev_rows in
  let time =
    List.fold_left (fun acc (r : Cp.step) -> acc +. r.Cp.cost) 0.0 step_rows
  in
  (* Reduction epilogue: independent tiles reduce in parallel. *)
  let red_time =
    Rect.Tbl.fold (fun k v acc -> (k, v) :: acc) red_contribs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.fold_left
         (fun acc (_, (bytes, procs)) ->
           let k = List.length procs in
           if k <= 1 then acc
           else begin
             let first = List.hd procs in
             let link =
               if List.for_all (fun p -> node_of_lin.(p) = node_of_lin.(first)) procs
               then Cost.Intra
               else Cost.Inter
             in
             (match link with
             | Cost.Intra ->
                 Metrics.inc m_bytes_intra (bytes *. float_of_int (k - 1))
             | Cost.Inter ->
                 Metrics.inc m_bytes_inter (bytes *. float_of_int (k - 1)));
             Metrics.inc_int obs.m_messages (k - 1);
             max acc (Cost.reduce_time cost link ~bytes ~contributors:k)
           end)
         0.0
  in
  (* {3 Recovery epilogue} *)
  (* Each kill is an independent recovery episode: the failure is
     detected (a heartbeat timeout), every processor rolls back to the
     last checkpoint boundary — restoring from its buddy replica the
     snapshots the replayed steps will rewrite — and the steps from the
     boundary through the kill step are replayed at their assembled cost.
     Without checkpointing the rollback is a restart: replay from step 0
     with nothing to restore. The simulated clock pays for all of it;
     checkpoint *writes* are assumed overlapped with the run (their
     modeled cost is reported as [exec.checkpoint_time], never added to
     [exec.time]), which keeps fault-free runs with checkpointing on
     byte-identical to plain runs. *)
  let buddy_link q =
    let b = (q + 1) mod nprocs in
    if node_of_lin.(q) = node_of_lin.(b) then Cost.Intra else Cost.Inter
  in
  (* (proc, kill step, replay-from, detect, restore, replay) per kill,
     in strike order — the profile emission below walks the same list. *)
  let episodes =
    match inj with
    | Some i when have_kills ->
        let row_cost = Array.make nsteps 0.0 in
        List.iter
          (fun (r : Cp.step) -> row_cost.(r.Cp.index) <- r.Cp.cost)
          step_rows;
        List.map
          (fun (proc, k) ->
            inc_opt_int m_faults_injected 1;
            let b = Injector.last_boundary i ~step:k in
            inc_opt_int m_replayed_steps (k - b + 1);
            let replay = ref 0.0 in
            for s = b to k do
              replay := !replay +. row_cost.(s)
            done;
            let restore =
              match ckpt with
              | Some c ->
                  let worst = ref 0.0 in
                  for q = 0 to nprocs - 1 do
                    let bytes =
                      Checkpoint.range_bytes c ~from_step:b ~to_step:k ~proc:q
                    in
                    if bytes > 0.0 then begin
                      inc_opt m_restore_bytes bytes;
                      let t = Cost.restore_time cost (buddy_link q) ~bytes in
                      if t > !worst then worst := t
                    end
                  done;
                  !worst
              | None -> 0.0
            in
            (proc, k, b, Cost.detect_time cost, restore, !replay))
          (Injector.kills i)
    | _ -> []
  in
  let recovery_time =
    List.fold_left
      (fun acc (_, _, _, detect, restore, replay) ->
        acc +. detect +. restore +. replay)
      0.0 episodes
  in
  (match ckpt with
  | Some c ->
      inc_opt m_ckpt_bytes (Checkpoint.total_bytes c);
      (* Modeled cost of streaming every step snapshot to its buddy:
         informational only (see above). *)
      let wtime =
        List.fold_left
          (fun acc s ->
            let worst = ref 0.0 in
            for q = 0 to nprocs - 1 do
              let bytes = Checkpoint.bytes c ~step:s ~proc:q in
              if bytes > 0.0 then begin
                let t = Cost.checkpoint_time cost (buddy_link q) ~bytes in
                if t > !worst then worst := t
              end
            done;
            acc +. !worst)
          0.0 (Checkpoint.write_steps c)
      in
      Metrics.set (Metrics.gauge reg "exec.checkpoint_time") wtime
  | None -> ());
  if inj <> None then
    Metrics.set (Metrics.gauge reg "exec.recovery_time") recovery_time;
  let total_time = overhead +. time +. red_time +. recovery_time in
  Metrics.set (Metrics.gauge reg "exec.time") total_time;
  Metrics.set (Metrics.gauge reg "exec.steps") (float_of_int nsteps);
  Metrics.set (Metrics.gauge reg "exec.overhead_time") overhead;
  Metrics.set (Metrics.gauge reg "exec.reduction_time") red_time;
  set_coalesce_ratio reg ~fragments:!total_fragments ~messages:!total_messages;
  (* Memory accounting. *)
  let mem_limit = Machine.mem_per_proc_bytes machine in
  let g_peak = Metrics.gauge reg "exec.peak_mem" in
  let g_oom = Metrics.gauge reg "exec.oom" in
  for p = 0 to nprocs - 1 do
    let m = static_mem.(p) +. dyn_peak.(p) in
    Metrics.set_max g_peak m;
    if m > mem_limit then Metrics.set g_oom 1.0
  done;
  Metrics.set (Metrics.gauge reg "exec.assembly_wall_s") (Pool.now () -. assembly0);
  (* {3 Profile emission} *)
  (match (profile, prun) with
  | Some p, Some run ->
      let sink = Profile.sink p in
      let pid = run.Profile.pid in
      let rt = nprocs in
      Span.thread_name sink ~pid ~tid:rt "runtime";
      name_proc_tracks sink ~pid machine;
      if overhead > 0.0 then
        Span.complete sink ~name:"task launch overhead" ~cat:"runtime" ~pid ~tid:rt
          ~ts:0.0 ~dur:overhead
          ~attrs:[ ("tasks_per_proc", Event.Int tasks_per_proc) ]
          ();
      List.iter
        (fun (row : Cp.step) ->
          Span.complete sink
            ~name:(Printf.sprintf "step %d" row.Cp.index)
            ~cat:"step" ~pid ~tid:rt ~ts:row.Cp.start ~dur:row.Cp.cost
            ~attrs:
              [
                ("bytes", Event.Float row.Cp.bytes);
                ("messages", Event.Int row.Cp.messages);
                ("fabric", Event.Float row.Cp.fabric);
              ]
            ();
          Span.counter sink ~name:"bytes moved" ~pid ~tid:rt ~ts:row.Cp.start
            row.Cp.bytes;
          emit_step sink ~pid row
            (Option.get steps_acc.(row.Cp.index))
            groups_of_step.(row.Cp.index))
        step_rows;
      if red_time > 0.0 then
        Span.complete sink ~name:"distributed reduction" ~cat:"reduction" ~pid ~tid:rt
          ~ts:(overhead +. time) ~dur:red_time ();
      (* Fault lanes: a kill instant on the victim's own track at the step
         it strikes, and one recovery span per episode (detect + restore +
         replay) chained after the reduction epilogue. Only emitted when a
         kill actually strikes, so fault-free event streams are untouched. *)
      if episodes <> [] then begin
        let start_of k =
          match List.find_opt (fun (r : Cp.step) -> r.Cp.index = k) step_rows with
          | Some r -> r.Cp.start
          | None -> overhead
        in
        let cursor = ref (overhead +. time +. red_time) in
        List.iter
          (fun (proc, k, b, detect, restore, replay) ->
            Span.instant sink
              ~name:(Printf.sprintf "kill proc %d" proc)
              ~cat:"fault" ~pid ~tid:proc ~ts:(start_of k)
              ~attrs:[ ("step", Event.Int k) ]
              ();
            let dur = detect +. restore +. replay in
            Span.complete sink
              ~name:(Printf.sprintf "recover proc %d: replay steps %d..%d" proc b k)
              ~cat:"fault" ~pid ~tid:rt ~ts:!cursor ~dur
              ~attrs:
                [
                  ("detect", Event.Float detect);
                  ("restore", Event.Float restore);
                  ("replay", Event.Float replay);
                  ("from_step", Event.Int b);
                  ("kill_step", Event.Int k);
                ]
              ();
            cursor := !cursor +. dur)
          episodes
      end;
      run.Profile.timeline <-
        Some
          {
            Cp.nprocs;
            overhead;
            reduction = red_time;
            recovery = recovery_time;
            steps = step_rows;
            total = total_time;
          }
  | _ -> ());
  (* Host allocation accounting: OCaml words this execution allocated
     (bigarray payloads live outside the heap and are not counted).
     Gauges only — [Stats.of_registry] reads a fixed name set, so the
     derived stats and the determinism contract are untouched.
     {!Distal_obs.Report.host_execution} prints them. The calling
     domain's delta covers set-up, merge, assembly and every lane that ran
     on it; lanes that ran on other pool domains add their own deltas. *)
  let minor1, major1 = alloc_words () in
  let self = (Domain.self () :> int) in
  let minor = ref (minor1 -. fst alloc0) and major = ref (major1 -. snd alloc0) in
  Array.iteri
    (fun lane d ->
      if d <> self then begin
        minor := !minor +. fst lane_alloc.(lane);
        major := !major +. snd lane_alloc.(lane)
      end)
    lane_domain;
  Metrics.set (Metrics.gauge reg "exec.alloc_minor_words") !minor;
  Metrics.set (Metrics.gauge reg "exec.alloc_major_words") !major;
  (match trace with Some log -> log := List.rev !log | None -> ());
  Ok
    {
      sim_stats = Stats.of_registry reg;
      sim_dops = Array.map ( ! ) drecs;
      sim_named = named_order;
      sim_leaf_vars =
        (match leaf with Taskir.Scalar_loops vars -> vars | Named _ -> []);
    }

(* {2 Compiled executable plans} *)

module Buf_pool = Distal_support.Buf_pool

(* Plan once per (program x schedule x machine x options), run many times
   against new tensor data. The plan phase is one simulation with data-op
   recording switched on: it prices the schedule exactly as a Model-mode
   [execute] does and captures, per launch point, the ordered data
   operations of the run. The run phase replays those operations with
   buffers from a size-classed pool ({!Buf_pool}) — per-lane arenas during
   the parallel probe, released back after the serial merge — so a warm
   run allocates no fragment, reduction or slice buffers at all. *)
type eplan = {
  ep_spec : spec;
  ep_stats : Stats.t;  (* modeled per-run stats, fixed at plan time *)
  ep_dops : dop list array;  (* per launch point, launch-point order *)
  ep_named : (string * string list) option;  (* substituted kernel, order *)
  ep_staged : Expr_stage.plan option;
  ep_leaf_vars : string list;  (* Scalar_loops nest, outermost first *)
  ep_guards : (string -> int option) -> bool;
  ep_points : (string * ((string -> int option) -> int option)) list;
      (* the [Expr.eval] fallback's guard and index points, compiled once *)
  ep_reads_out : bool;
  ep_accum : bool;
  ep_out_name : string;
  ep_out_shape : int array;
  ep_tensors : string list;
  ep_pool : Buf_pool.t;
  ep_m : Mutex.t;  (* one run at a time: arenas are per-plan state *)
  mutable ep_runs : int;
}

let compile_plan ?domains ?coalesce ?faults ?trace ?profile spec =
  let prog = spec.program in
  let stmt = prog.stmt in
  let* sim =
    execute_impl ?domains ?coalesce ?faults ?trace ?profile ~record:true spec
  in
  (* Staged leaf evaluation: the scalar loop nest compiled once into flat
     loops over precomputed strides ({!Expr_stage}); [None] when staging
     cannot express the nest, leaving the [Expr.eval] fallback. *)
  let staged =
    match sim.sim_leaf_vars with
    | [] -> None
    | vars -> Expr_stage.plan prog.prov ~stmt ~leaf_vars:vars
  in
  Ok
    {
      ep_spec = spec;
      ep_stats = sim.sim_stats;
      ep_dops = sim.sim_dops;
      ep_named = sim.sim_named;
      ep_staged = staged;
      ep_leaf_vars = sim.sim_leaf_vars;
      ep_guards = Provenance.guards_fn prog.prov;
      ep_points =
        List.map (fun v -> (v, Provenance.raw_point_fn prog.prov v)) (Expr.index_vars stmt);
      ep_reads_out = Expr.reads_output stmt;
      ep_accum = stmt.accum;
      ep_out_name = stmt.lhs.tensor;
      ep_out_shape = Taskir.shape_of prog stmt.lhs.tensor;
      ep_tensors = List.sort_uniq compare (Expr.tensors stmt);
      ep_pool = Buf_pool.create ();
      ep_m = Mutex.create ();
      ep_runs = 0;
    }

let plan ?coalesce ?faults ?trace ?profile spec =
  compile_plan ?coalesce ?faults ?trace ?profile spec

let plan_stats ep = { ep.ep_stats with Stats.time = ep.ep_stats.Stats.time }
let plan_runs ep = ep.ep_runs
let plan_pool_stats ep = Buf_pool.stats ep.ep_pool

let run_plan ?domains ep ~data =
  let spec = ep.ep_spec in
  let prog = spec.program in
  let stmt = prog.stmt in
  let prov = prog.prov in
  let out_name = ep.ep_out_name in
  let reads_out = ep.ep_reads_out in
  (* Every tensor the statement reads needs data; the output only when it
     is accumulated into or read on the right-hand side. *)
  let* () =
    List.fold_left
      (fun acc tn ->
        let* () = acc in
        if tn = out_name && (not ep.ep_accum) && not reads_out then Ok ()
        else if List.mem_assoc tn data then Ok ()
        else errf "no data given for tensor %s" tn)
      (Ok ()) ep.ep_tensors
  in
  (* Runs of one plan serialize: the arenas and the parked free lists are
     per-plan state. Different plans run concurrently without contact. *)
  Mutex.lock ep.ep_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock ep.ep_m) @@ fun () ->
  let pool = ep.ep_pool in
  let out_global =
    if ep.ep_accum then Dense.copy (List.assoc out_name data)
    else Dense.create ep.ep_out_shape
  in
  let input_of tn = List.assoc tn data in
  let npoints = Array.length ep.ep_dops in
  (* Per-point merge contributions in flush order: (rect, view, block,
     acquiring lane). Blocks outlive their task — they are released to
     their lane's arena only after the serial merge reads them. *)
  let contribs : (Rect.t * Dense.t * Buf_pool.buf * int) list array =
    Array.make npoints []
  in
  let hpool = Pool.get ?size:domains () in
  let lanes = max 1 (min (Pool.size hpool) npoints) in
  Pool.run hpool ~lanes (fun lane ->
      let arena = Buf_pool.arena pool lane in
      let insts : (string, Rect.t * Dense.t * Buf_pool.buf) Hashtbl.t =
        Hashtbl.create 8
      in
      let read_inst : (Rect.t * Dense.t * Buf_pool.buf) option ref = ref None in
      let env_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let acquire_view rect =
        let b = Buf_pool.acquire pool arena (Rect.volume rect) in
        (Dense.of_buf b (Rect.extents rect), b)
      in
      let buffer tn =
        match Hashtbl.find_opt insts tn with
        | Some (r, v, _) -> (r, v)
        | None -> invalid_arg ("plan leaf executed without an instance of " ^ tn)
      in
      let run_leaf denv slices =
        match ep.ep_named with
        | Some (kernel, _) ->
            (* Substituted kernel: replay the recorded slicing plan, run
               the tiled registry kernel, write a sliced output back. *)
            let bufs =
              List.map
                (fun { ds_tensor; ds_local } ->
                  let _, v = buffer ds_tensor in
                  match ds_local with
                  | None -> (v, None)
                  | Some local ->
                      let sb = Buf_pool.acquire pool arena (Rect.volume local) in
                      let sv = Dense.of_buf sb (Rect.extents local) in
                      Dense.extract_into ~src:v ~dst:sv local;
                      (sv, Some (v, local, sb)))
                slices
            in
            Kreg.run_named Kreg.Tiled ~kernel (List.map fst bufs);
            (match (slices, bufs) with
            | { ds_tensor; _ } :: _, (sv, Some (v, local, _)) :: _
              when String.equal ds_tensor out_name ->
                Dense.blit_into ~src:sv ~dst:v local
            | _ -> ());
            List.iter
              (function
                | _, Some (_, _, sb) -> Buf_pool.release pool arena sb
                | _, None -> ())
              bufs
        | None ->
            (* Scalar nest: the staged plan, which hands nests matching a
               registry kernel to the tiled kernels (bit-identical: they
               keep the nest's per-element accumulation order); the
               generic [Expr.eval] loop only where staging cannot express
               this binding. *)
            Hashtbl.reset env_tbl;
            Array.iter (fun (v, x) -> Hashtbl.replace env_tbl v x) denv;
            let env v = Hashtbl.find_opt env_tbl v in
            let staged_done =
              match ep.ep_staged with
              | None -> false
              | Some sp ->
                  let slots = Expr_stage.slots sp in
                  let nslots = Array.length slots in
                  let inst_of i (a : Expr.access) =
                    let inst =
                      if i < nslots - 1 && reads_out && String.equal a.tensor out_name
                      then !read_inst
                      else Hashtbl.find_opt insts a.tensor
                    in
                    Option.map (fun (r, v, _) -> (r, v)) inst
                  in
                  let sinsts = Array.mapi inst_of slots in
                  Array.for_all Option.is_some sinsts
                  && Expr_stage.run sp ~env
                       ~insts:(Array.map Option.get sinsts)
            in
            if not staged_done then begin
              let vars_arr = Array.of_list ep.ep_leaf_vars in
              let extents = Array.map (Provenance.extent prov) vars_arr in
              let lookup (a : Expr.access) coord =
                let r, v =
                  if reads_out && String.equal a.tensor out_name then
                    match !read_inst with
                    | Some (r, v, _) -> (r, v)
                    | None ->
                        invalid_arg
                          ("plan leaf executed without a read instance of "
                         ^ out_name)
                  else buffer a.tensor
                in
                let local =
                  Array.mapi (fun d c -> c - (r : Rect.t).lo.(d)) coord
                in
                Dense.get v local
              in
              let out_rect, out_buf = buffer out_name in
              Ints.iter_box extents (fun pt ->
                  Array.iteri (fun i v -> Hashtbl.replace env_tbl v pt.(i)) vars_arr;
                  if ep.ep_guards env then begin
                    let point v =
                      match (List.assoc v ep.ep_points) env with
                      | Some x -> x
                      | None -> invalid_arg ("unbound index variable " ^ v)
                    in
                    let value = Expr.eval stmt ~lookup ~point in
                    let coord = Array.of_list (List.map point stmt.lhs.indices) in
                    let local =
                      Array.mapi
                        (fun d c -> c - (out_rect : Rect.t).lo.(d))
                        coord
                    in
                    Dense.add_at out_buf local value
                  end)
            end
      in
      let lo = lane * npoints / lanes and hi = (lane + 1) * npoints / lanes in
      for i = lo to hi - 1 do
        let out_contribs = ref [] in
        List.iter
          (fun d ->
            match d with
            | D_inst { tensor; rect; role } -> (
                (* The new instance replaces the task's previous one of
                   the same tensor and role. *)
                let old =
                  match role with
                  | R_read_out -> !read_inst
                  | R_input | R_output -> Hashtbl.find_opt insts tensor
                in
                Option.iter (fun (_, _, b) -> Buf_pool.release pool arena b) old;
                let v, b = acquire_view rect in
                if role = R_output then Dense.fill v 0.0
                else Dense.extract_into ~src:(input_of tensor) ~dst:v rect;
                match role with
                | R_read_out -> read_inst := Some (rect, v, b)
                | R_input | R_output -> Hashtbl.replace insts tensor (rect, v, b))
            | D_leaf { denv; slices } -> run_leaf denv slices
            | D_flush -> (
                match Hashtbl.find_opt insts out_name with
                | Some (rect, v, b) ->
                    Hashtbl.remove insts out_name;
                    out_contribs := (rect, v, b, lane) :: !out_contribs
                | None -> ()))
          ep.ep_dops.(i);
        contribs.(i) <- List.rev !out_contribs;
        (* Input instances die with the task. *)
        Hashtbl.iter (fun _ (_, _, b) -> Buf_pool.release pool arena b) insts;
        Hashtbl.reset insts;
        match !read_inst with
        | Some (_, _, b) ->
            Buf_pool.release pool arena b;
            read_inst := None
        | None -> ()
      done);
  (* Serial merge in launch-point order, flush order within a task: one
     accumulation order whatever the domain count, so outputs are
     byte-identical across pool sizes. *)
  for i = 0 to npoints - 1 do
    List.iter
      (fun (rect, v, b, lane) ->
        if not (Rect.is_empty rect) then
          Dense.accumulate_into ~src:v ~dst:out_global rect;
        Buf_pool.release pool (Buf_pool.arena pool lane) b)
      contribs.(i)
  done;
  ep.ep_runs <- ep.ep_runs + 1;
  Ok { output = Some out_global; stats = plan_stats ep }

(* {2 One-shot execution} *)

let execute ?(mode = Full) ?coalesce ?domains ?trace ?profile ?faults spec ~data =
  match mode with
  | Model ->
      let* sim = execute_impl ?coalesce ?domains ?trace ?profile ?faults spec in
      Ok { output = None; stats = sim.sim_stats }
  | Full ->
      let* ep = compile_plan ?domains ?coalesce ?faults ?trace ?profile spec in
      run_plan ?domains ep ~data

(* {2 Redistribution} *)

let redistribute ?profile machine cost ~shape ~src ~dst =
  let prun = Option.map (fun p -> Profile.begin_run ~fallback:"redistribute" p) profile in
  let reg = match prun with Some r -> r.Profile.metrics | None -> Metrics.create () in
  let m_bytes_intra = Metrics.counter reg "exec.bytes_intra" in
  let m_bytes_inter = Metrics.counter reg "exec.bytes_inter" in
  let nprocs = Machine.num_procs machine in
  let node_of_lin = nodes_of_procs machine in
  let rack_of_lin = Array.map (fun n -> n / cost.Cost.rack_nodes) node_of_lin in
  let tiles dist =
    List.map
      (fun (r, os) -> (r, List.map (Machine.linearize machine) os))
      (Distnot.tiles dist ~shape ~machine)
  in
  let src_tiles = tiles src in
  (* A redistribution is one exchange step with no compute: every piece a
     destination owner lacks comes from an owner of the overlapping source
     tile, a same-node one when there is one. *)
  let a = new_step_acc nprocs in
  List.iter
    (fun (dr, downers) ->
      List.iter
        (fun d ->
          List.iter
            (fun (sr, sowners) ->
              let piece = Rect.inter dr sr in
              if (not (Rect.is_empty piece)) && not (List.mem d sowners) then begin
                let s =
                  match same_node_owner node_of_lin node_of_lin.(d) sowners with
                  | -1 -> List.hd sowners
                  | o -> o
                in
                let bytes = bytes_of_rect piece in
                let link = if node_of_lin.(s) = node_of_lin.(d) then Cost.Intra else Cost.Inter in
                Metrics.inc (if link = Cost.Intra then m_bytes_intra else m_bytes_inter) bytes;
                if rack_of_lin.(s) <> rack_of_lin.(d) then a.cross <- a.cross +. bytes;
                a.raws <- Comm_plan.batch ~tensor:"" ~src:s ~dst:d ~link [ piece ] :: a.raws
              end)
            src_tiles)
        downers)
    (tiles dst);
  let row, glist =
    price_step machine cost (step_obs reg) ~coalesce:true ~kernel:None ~msg_faults:None
      ~profiling:(Option.is_some prun) ~step:0 ~start:0.0 a
  in
  Metrics.set (Metrics.gauge reg "exec.time") row.Cp.cost;
  Metrics.set (Metrics.gauge reg "exec.steps") 1.0;
  set_coalesce_ratio reg ~fragments:(List.length a.raws) ~messages:row.Cp.messages;
  (match (profile, prun) with
  | Some p, Some run ->
      let sink = Profile.sink p and pid = run.Profile.pid in
      name_proc_tracks sink ~pid machine;
      emit_step sink ~pid row a glist;
      run.Profile.timeline <-
        Some
          { Cp.nprocs; overhead = 0.0; reduction = 0.0; recovery = 0.0; steps = [ row ];
            total = row.Cp.cost }
  | _ -> ());
  Stats.of_registry reg
