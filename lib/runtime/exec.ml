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
let now = Unix.gettimeofday
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

(* One owner-group of a memoized fetch plan: the pieces of a footprint a
   given owner set holds, pre-merged into block/strided form. Owners are
   physical linear indices, deduped, in discovery order. *)
type fetch_group = { fg_owners : int list; fg_load : Comm_plan.payload }

(* One footprint of one tensor at one site of the task walk, shared by
   every task whose dependent loop variables take the same values
   there. The rect is computed once, the fetch plan on first use. *)
type fentry = {
  f_rect : Rect.t;
  f_bytes : float;
  mutable f_plan : fetch_group list option;
}

(* The absent entry: no instance held, no footprint memoized yet. *)
let no_inst = { f_rect = Rect.full [||]; f_bytes = 0.0; f_plan = None }

(* Turns a task's slot environment into one int at a fixed site of the
   walk: the mixed-radix number of the values a footprint or interval
   depends on ({!Provenance.key_deps}) — a bound slot, or the rotated
   value (sum of bound slots, mod the extent) of a variable [rotate]
   replaced. The slots bound at a site never change, so equal keys mean
   equal dependent values. *)
type keyer = { k_slots : int array array; k_mods : int array; k_strides : int array }

let key_of k (env : int array) =
  let acc = ref 0 in
  for i = 0 to Array.length k.k_slots - 1 do
    let s = k.k_slots.(i) in
    let x =
      if Array.length s = 1 then env.(s.(0))
      else begin
        let sum = ref 0 in
        for j = 0 to Array.length s - 1 do
          sum := !sum + env.(s.(j))
        done;
        !sum mod k.k_mods.(i)
      end
    in
    acc := !acc + (x * k.k_strides.(i))
  done;
  !acc

(* How many keys a keyer can produce: every key is below this. *)
let key_range k = if Array.length k.k_mods = 0 then 1 else k.k_strides.(0) * k.k_mods.(0)

(* The task tree with names resolved: loop variables to slots, tensors to
   indices, each [Ensure] to its footprint site. *)
type node =
  | N_seq of { slot : int; extent : int; body : node }
  | N_ensure of { t : int; site : int; body : node }
  | N_leaf

(* The index of [name] in [names] (compared physically first). *)
let rec name_index (names : string array) name i =
  if i = Array.length names then invalid_arg ("unknown tensor " ^ name)
  else if names.(i) == name || String.equal names.(i) name then i
  else name_index names name (i + 1)

let rec mem_int (x : int) = function [] -> false | y :: ys -> x = y || mem_int x ys

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

(* The link between two processors, given each one's node. *)
let link_between node_of_lin src dst =
  if node_of_lin.(src) = node_of_lin.(dst) then Cost.Intra else Cost.Inter

(* The first owner on [node], or -1. *)
let rec same_node_owner node_of_lin node = function
  | [] -> -1
  | o :: os -> if node_of_lin.(o) = node then o else same_node_owner node_of_lin node os

(* {2 Bound operations} *)

(* The data path of one launch point, bound while the planning walk runs.
   A task's control flow — instance footprints, communicate points, leaf
   schedule — depends only on the spec, never on tensor contents, so the
   walk binds every data operation as it reaches it and [run_plan], the
   one data path, replays them against tensor data with pooled buffers.
   A leaf is bound to its tier: [B_leaf] a registry kernel or a staged
   nest whose operands are located by buffer ([src]: a tensor's index in
   [ep_tensors], or [out_src] for the task's current output instance),
   offset and strides; [B_eval] the [Expr.eval] fallback, whose table
   holds the launch and sequential bindings and, as it runs, the leaf
   variables. *)
type bop =
  | B_out of Rect.t  (* a zero-filled output instance *)
  | B_leaf of Expr_stage.bound
  | B_eval of (string, int) Hashtbl.t
  | B_flush  (* the current output instance becomes a merge contribution *)

let out_src = -1

(* A non-empty fault plan resolved against the run: the injector, the
   checkpoint store when the plan checkpoints, whether it has message
   faults, and the fault instruments. An absent or empty plan resolves to
   none, so a fault-free run takes the identity path everywhere and
   registers no fault metric. *)
type faults = {
  inj : Injector.t;
  ckpt : Checkpoint.t option;
  msg_faults : bool;
  m_injected : Metrics.counter;
  m_replayed : Metrics.counter;
  m_ckpt_bytes : Metrics.counter;
  m_restore_bytes : Metrics.counter;
}

(* Per-step accumulators, preallocated per physical processor. One record
   per *active* step (a step some copy or compute touched), so pricing
   walks flat arrays instead of hashing (step, proc) pairs and
   sorting the result. Copies land in the step's message table as they
   are charged ([Comm_plan.add]) and become groups when it is priced. *)
type step_acc = {
  msgs : Comm_plan.table;
  cflops : float array;
  cbytes : float array;
  ctouch : bool array;
  send : float array;
  recv : float array;
  mtouch : bool array;
  cross : float array;  (* cross-rack bytes this step, in one unboxed cell *)
}

let new_step_acc nprocs =
  {
    msgs = Comm_plan.table ();
    cflops = Array.make nprocs 0.0;
    cbytes = Array.make nprocs 0.0;
    ctouch = Array.make nprocs false;
    send = Array.make nprocs 0.0;
    recv = Array.make nprocs 0.0;
    mtouch = Array.make nprocs false;
    cross = [| 0.0 |];
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
    (* Host seconds spent turning each step's message table into
       broadcast groups ([Comm_plan.groups]: unioning multi-payload
       triples, grouping, sorting) and charging them ([price_groups]).
       Filling the tables happens during the task walk and is not
       included. Wall-clock observability only: like
       [exec.compute_wall_s] it never feeds events or simulated time, so
       determinism is untouched. *)
    m_plan_host = Metrics.counter reg "exec.plan_wall_s";
    h_copy_bytes = Metrics.histogram reg "exec.copy_bytes";
    h_step_time = Metrics.histogram reg "exec.step_time";
  }

(* Post-planning observability: group counts, merged-run counts and
   per-message payload sizes are recorded after grouping, so
   [exec.messages] counts wire messages, not raw fragments (raw traffic
   totals stay in [exec.bytes_intra]/[exec.bytes_inter], which planning
   never changes). *)
let observe_groups obs glist =
  List.iter
    (fun (g : Comm_plan.group) ->
      Metrics.inc_int obs.m_copy_groups 1;
      if g.fragments > 1 then Metrics.inc_int obs.m_coalesced 1;
      let k = Array.length g.receivers in
      Metrics.inc_int obs.m_messages k;
      Metrics.observe_n obs.h_copy_bytes g.bytes k)
    glist

(* Charge one step's copy groups into the per-processor send/recv occupancy
   arrays; returns (payload bytes moved, messages). A processor's two
   occupancies are later combined per the cost model's duplex mode.
   Broadcasts use the large-message collective model; a strided run
   additionally pays the packing cost on its endpoints. [link src dst]
   is the link a message takes. *)
let price_groups cost ~link ~send ~recv ~mtouch glist =
  let bytes = ref 0.0 and messages = ref 0 in
  List.iter
    (fun (g : Comm_plan.group) ->
      let k = Array.length g.receivers in
      bytes := !bytes +. (g.bytes *. float_of_int k);
      messages := !messages + k;
      let pack = Cost.pack_time cost ~fragments:g.fragments in
      if k = 1 then begin
        let dst = g.receivers.(0) in
        let t =
          Cost.strided_copy_time cost (link g.src dst) ~bytes:g.bytes ~fragments:g.fragments
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
        Array.iter
          (fun dst ->
            let is_inter = link g.src dst = Cost.Inter in
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
let emit_copy_instants sink ~pid ~link ~ts glist =
  List.iter
    (fun (g : Comm_plan.group) ->
      let k = Array.length g.receivers in
      Array.iter
        (fun dst ->
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
                    (match link g.src dst with Cost.Intra -> "intra" | Cost.Inter -> "inter")
                );
                ("receivers", Event.Int k);
              ]
            ())
        g.receivers)
    glist

(* The one pricing of a bulk-synchronous step, shared by [execute] and
   [redistribute]. The step's message table is planned into wire
   messages (one per (tensor, src, dst)) and identical payloads bundled
   into broadcasts;
   their occupancies, and the retransmissions and delays of any message
   faults, are charged to the endpoints. The step costs the max over
   processors of overlapped compute and communication, or the rack
   fabric's occupancy when that is larger. [kernel] prices leaf compute
   (see [resolve]). Returns the timeline row (with per-processor slots
   only when [profiling]) and the planned groups. *)
let price_step machine cost obs ~link ~kernel ~faults ~profiling ~step ~start a =
  let t_plan = now () in
  let glist = Comm_plan.groups a.msgs in
  observe_groups obs glist;
  (* A processor's communication time in a step combines its send and
     receive occupancies per the cost model's duplex mode (full-duplex
     NICs overlap them; framebuffer DMA serializes them). *)
  let bytes, messages =
    price_groups cost ~link ~send:a.send ~recv:a.recv ~mtouch:a.mtouch glist
  in
  Metrics.inc obs.m_plan_host (now () -. t_plan);
  (* Message faults: a matched drop costs its endpoints a retransmission
     (timeout + full resend), a matched delay holds the receiver back.
     Payload byte/message counts are untouched — the data still arrives,
     late. Purely plan-driven. *)
  (match faults with
  | Some f when f.msg_faults ->
      List.iter
        (fun (g : Comm_plan.group) ->
          Array.iter
            (fun dst ->
              match Injector.msg_action f.inj ~step ~tensor:g.tensor ~src:g.src ~dst with
              | Some Fault.Drop ->
                  Metrics.inc_int f.m_injected 1;
                  let t =
                    Cost.retransmit_time cost (link g.src dst) ~bytes:g.bytes
                      ~fragments:g.fragments
                  in
                  a.send.(g.src) <- a.send.(g.src) +. t;
                  a.recv.(dst) <- a.recv.(dst) +. t;
                  a.mtouch.(g.src) <- true;
                  a.mtouch.(dst) <- true
              | Some (Fault.Delay d) ->
                  Metrics.inc_int f.m_injected 1;
                  a.recv.(dst) <- a.recv.(dst) +. d;
                  a.mtouch.(dst) <- true
              | None -> ())
            g.receivers)
        glist
  | _ -> ());
  let fabric =
    if a.cross.(0) > 0.0 then
      let racks = Ints.ceil_div (Machine.num_nodes machine) cost.Cost.rack_nodes in
      Cost.fabric_time cost ~cross_rack_bytes:a.cross.(0) ~racks
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
let emit_step sink ~pid ~link (row : Cp.step) a glist =
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
  emit_copy_instants sink ~pid ~link ~ts:row.Cp.start glist

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

(* {2 The simulator}

   One simulation prices the program on the cost model without touching
   tensor data, in four phases over one resolved context: [resolve]
   checks the spec and fixes everything that depends on it alone; [walk]
   runs one task per launch point into per-step tables, reduction
   contributions and memory peaks, binding each leaf as it reaches it
   when a plan is being compiled; [price] turns the tables into simulated
   time; [emit] writes the profile. [Model]-mode [execute] is exactly
   this; {!plan} is this with recording on, and [Full]-mode [execute] is
   {!plan} followed by [run_plan]. *)

(* Everything the walk, pricing and emission read, fixed by [resolve],
   and the tables the walk fills. Tensors are addressed by their index in
   [tensors] (statement order); processors by physical linear index. The
   walk binds launch variables (from the point) and sequential loop
   variables (outermost first), each in its own slot of [env], -1 where
   unbound. *)
type ctx = {
  machine : Machine.t;
  cost : Cost.t;
  stmt : Expr.stmt;
  trace : trace_event list ref option;
  profile : (Profile.t * Profile.run) option;
  reg : Metrics.registry;
  faults : faults option;
  named : (string * string list) option;  (* substituted kernel, operand order *)
  priced_kernel : string option;
  leaf_vars : string list;  (* the scalar leaf's loops, outermost first *)
  reads_out : bool;
  reduction : bool;
  ops : int;  (* operations per leaf iteration point *)
  nprocs : int;
  node_of_lin : int array;
  rack_of_lin : int array;
  tensors : string array;
  out_t : int;
  index_t : int list Rect_index.t array;  (* tiles to their owners *)
  proc_rects_t : Rect.t list array array;  (* the tiles each processor owns *)
  points : int array array;  (* launch points, in launch-point order *)
  ldims : int array;
  seq_strides : int array;
  nsteps : int;
  slot_vars : string array;
  env : int array;
  tree : node;
  sites : (int * keyer) array;  (* footprint sites: tensor and key *)
  leaf_site : int array;  (* per tensor, its site at the leaf *)
  footprint_fns : (int array -> Rect.t) array;
  ikeys : keyer array;  (* per index variable: its interval's key and function *)
  ifns : (int array -> int * int) array;
  cursor : Rect_index.cursor;
  site_memo : fentry array array;  (* per site, by key; [no_inst] until computed *)
  rect_memo : fentry Rect.Tbl.t array;
  ival_memo : int array array;  (* per index variable, by key; -1 until computed *)
  mutable footprints : int;
  steps_acc : step_acc option array;
  red_contribs : (float * int list) Rect.Tbl.t;
  dyn_peak : float array;
  tally : float array;  (* the walk's flops, intra and inter bytes, then bytes per tensor *)
  tallied : Metrics.counter array;  (* the counters [tally] reaches, same order *)
  m_tasks : Metrics.counter;
  obs : step_obs;
  alloc0 : float * float;
}

(* Plan compilation: what binding a leaf needs, and the bound operations
   of the task being walked, newest first. *)
type recorder = {
  staged : Expr_stage.plan option;  (* the scalar nest, staged once *)
  src : int array;  (* per tensor: its index among the plan's sorted tensors *)
  strides : int array array;  (* per tensor: the caller's row-major strides *)
  order : int array;  (* a substituted kernel's operands, kernel order *)
  slot_t : int array;  (* the tensor of each slot of the staged nest *)
  mutable bops : bop list;
}

(* The task being walked: its processor; the instance it holds of each
   tensor ([no_inst] when none) and whether that instance counts against
   dynamic memory (instances of locally-owned tiles alias the owned
   data); the read-only instance of the output a self-referencing
   statement reads, kept apart from the write instance; [mem.(0)] live
   dynamic bytes, [mem.(1)] their peak. One record per walk, reset per
   task. *)
type task = {
  mutable proc : int;
  inst : fentry array;
  counted : bool array;
  mutable out_read : fentry;
  mutable out_read_counted : bool;
  mem : float array;
  record : recorder option;
}

(* {3 Resolve} *)

let rec leaf_of = function
  | Taskir.Launch { body; _ } | Seq_loop { body; _ } | Ensure { body; _ } -> leaf_of body
  | Leaf l -> l

let rec seq_loops = function
  | Taskir.Launch { body; _ } | Ensure { body; _ } -> seq_loops body
  | Seq_loop { var; extent; body } -> (var, extent) :: seq_loops body
  | Leaf _ -> []

(* What an index entry array holds before its tiles are written: a
   value allocated once, so a large entry array is made without a minor
   collection (the runtime runs one when [Array.make]'s initial value is
   still young). *)
let no_tile = (Rect.full [||], [])

(* Per tensor: a spatial index over the distribution's tiles (cyclic
   distributions produce many) and the tiles each physical processor
   owns (several under over-decomposition). Owners are physical linear
   indices. Tensors sharing a distribution and shape (e.g. both GEMM
   operands cyclic over the same grid) share one tile sweep, index and
   owned-tile table — the index is read-only under query interleaving. *)
let tile_geometry prog ~dists ~vmachine ~nprocs ~lin_of_virtual tensors =
  let memo = Hashtbl.create 8 in
  let geom tn =
    let shape = Taskir.shape_of prog tn in
    let dist = List.assoc tn dists in
    let key = Distnot.to_string dist ^ "|" ^ Ints.to_string shape in
    match Hashtbl.find_opt memo key with
    | Some g -> g
    | None ->
        let vtiles = Distnot.tiles dist ~shape ~machine:vmachine in
        (* One pass fills the index's entries (owners deduped, in order)
           and the owned-tile lists. *)
        let entries = Array.make (List.length vtiles) no_tile and rects = Array.make nprocs [] in
        let dedup acc l = if mem_int l acc then acc else l :: acc in
        List.iteri
          (fun i (r, owners) ->
            let lins = List.map lin_of_virtual owners in
            List.iter (fun p -> rects.(p) <- r :: rects.(p)) lins;
            let owners = match lins with [ _ ] -> lins | _ -> List.rev (List.fold_left dedup [] lins) in
            entries.(i) <- (r, owners))
          vtiles;
        let index = Rect_index.build entries in
        Hashtbl.add memo key (index, rects);
        (index, rects)
  in
  let g = Array.map geom tensors in
  (Array.map fst g, Array.map snd g)

(* Checks the spec — distributions, the substituted kernel, the fault
   plan — and fixes everything the walk needs that depends on the spec
   alone: machine maps, tile geometry, slots, footprint sites and the
   compiled task tree. Registers the run's instruments (fault instruments
   only for a non-empty fault plan). *)
let resolve ?trace ?profile ?faults spec =
  (* Register this execution as a run of the profile (its own pid, metrics
     registry and timeline slot). Without a profile the registry is private
     to this call; either way it is the single accumulator the final
     [Stats.t] view derives from. *)
  let profile = Option.map (fun p -> (p, Profile.begin_run ~fallback:"execute" p)) profile in
  let reg = match profile with Some (_, r) -> r.Profile.metrics | None -> Metrics.create () in
  let wall_start = now () in
  let alloc0 = alloc_words () in
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
  let tensor_list = Expr.tensors stmt in
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
  let nprocs = Machine.num_procs machine in
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
      (Ok []) tensor_list
  in
  let leaf = leaf_of prog.tree in
  let* named =
    match leaf with
    | Taskir.Scalar_loops _ -> Ok None
    | Named { kernel; _ } ->
        let* order = Kernel_match.check stmt ~kernel in
        Ok (Some (kernel, order))
  in
  let* () =
    match named with
    | Some _ when reads_out ->
        errf "substituted kernels cannot read their output tensor %s" out_name
    | _ -> Ok ()
  in
  let lvars, ldims = Taskir.launch prog in
  let seqs = seq_loops prog.tree in
  let seq_vars = Array.of_list (List.map fst seqs) in
  let seq_dims = Array.of_list (List.map snd seqs) in
  let nsteps = max 1 (Ints.prod seq_dims) in
  let* faults =
    let fplan = Option.value faults ~default:Fault.empty in
    if Fault.is_empty fplan then Ok None
    else
      match Injector.create fplan ~nprocs ~nsteps with
      | Error e -> errf "invalid fault plan: %s" e
      | Ok inj ->
          Ok
            (Some
               {
                 inj;
                 ckpt =
                   (if Injector.checkpointing inj then
                      Some (Checkpoint.create ~merge:Comm_plan.merge_rects)
                    else None);
                 msg_faults = fplan.Fault.messages <> [];
                 m_injected = Metrics.counter reg "exec.faults_injected";
                 m_replayed = Metrics.counter reg "exec.replayed_steps";
                 m_ckpt_bytes = Metrics.counter reg "exec.checkpoint_bytes";
                 m_restore_bytes = Metrics.counter reg "exec.restore_bytes";
               })
  in
  (* Per-linear-processor node and rack ids: link and rack decisions in the
     walk are plain array lookups instead of coordinate arithmetic. *)
  let node_of_lin = nodes_of_procs machine in
  (* Folding a virtual owner to a physical linear index needs no coordinate
     round-trip: delinearize and linearize on the same machine cancel. *)
  let lin_of_virtual =
    if spec.virtual_grid = None then Machine.linearize machine
    else fun vc -> Machine.linearize vmachine vc mod nprocs
  in
  let tensors = Array.of_list tensor_list in
  let tensor_index tn = name_index tensors tn 0 in
  let index_t, proc_rects_t =
    tile_geometry prog ~dists ~vmachine ~nprocs ~lin_of_virtual tensors
  in
  (* {3 Slots and footprint sites} *)
  (* Footprints and intervals are compiled against the slots once, so no
     name is looked up per task step. *)
  let slot_vars = Array.append (Array.of_list lvars) seq_vars in
  let slot_ext = Array.append ldims seq_dims in
  let nslots = Array.length slot_vars in
  let slot_tbl = Hashtbl.create 16 in
  Array.iteri (fun s v -> Hashtbl.replace slot_tbl v s) slot_vars;
  let slot = Hashtbl.find_opt slot_tbl in
  let bound = Array.init nslots (fun s -> s < Array.length ldims) in
  let keyer vars =
    let bound_var v = match slot v with Some s -> bound.(s) | None -> false in
    let comps =
      List.concat_map (Provenance.key_deps prov ~bound:bound_var) vars
      |> List.map (fun (vs, m) ->
             match List.sort compare (List.filter_map slot vs) with
             | [ s ] -> ([| s |], slot_ext.(s))
             | ss -> (Array.of_list ss, m))
      |> List.sort_uniq compare |> Array.of_list
    in
    let strides = Array.make (Array.length comps) 1 in
    for i = Array.length comps - 2 downto 0 do
      strides.(i) <- strides.(i + 1) * snd comps.(i + 1)
    done;
    { k_slots = Array.map fst comps; k_mods = Array.map snd comps; k_strides = strides }
  in
  let access_vars t =
    List.concat_map
      (fun (a : Expr.access) -> if String.equal a.tensor tensors.(t) then a.indices else [])
      (Expr.stmt_accesses stmt)
    |> List.sort_uniq compare
  in
  (* Footprint sites: one per [Ensure], plus one per tensor at the leaf
     (the slicing plan a recording walk binds). *)
  let rev_sites = ref [] and nsites = ref 0 in
  let new_site t =
    rev_sites := (t, keyer (access_vars t)) :: !rev_sites;
    incr nsites;
    !nsites - 1
  in
  let leaf_site = Array.make (Array.length tensors) (-1) in
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
  (* Leaf compute is priced as the substituted kernel when the tree names
     one, else the kernel the statement structurally matches. The latter
     covers unsubstituted leaves, which the registry also runs at native
     speed through staged dispatch — and, crucially, it depends only on
     the spec (never on the host), so modeled time keeps the determinism
     contract. *)
  let priced_kernel = match named with Some (k, _) -> Some k | None -> Kernel_match.infer stmt in
  (* Reduction mode: some distributed loop variable derives from a
     variable summed over (§3.3: "distributing variables used for
     reductions results in distributed reductions into the output"). *)
  let reduction =
    let roots = Expr.reduction_vars stmt in
    let derives lv = List.exists (fun r -> Provenance.derives_from prov lv ~root:r) roots in
    List.exists derives lvars
  in
  let c =
    { machine; cost; stmt; trace; profile; reg; faults; named; priced_kernel;
      leaf_vars = (match leaf with Taskir.Scalar_loops vars -> vars | Named _ -> []);
      reads_out; reduction; ops = ops_per_point stmt; nprocs; node_of_lin;
      rack_of_lin = Array.map (fun n -> n / cost.Cost.rack_nodes) node_of_lin;
      tensors; out_t = tensor_index out_name; index_t; proc_rects_t;
      (* Filled in place: [Array.of_list] of more than 256 young values
         runs a minor collection. *)
      points =
        (let pts = Array.make (Ints.prod ldims) [||] in
         Array.iteri (fun i _ -> pts.(i) <- Ints.delinearize ~dims:ldims i) pts;
         pts);
      ldims; seq_strides = Ints.row_major_strides seq_dims; nsteps; slot_vars;
      env = Array.make nslots (-1); tree; sites; leaf_site;
      footprint_fns =
        Array.map
          (fun tn -> Bounds.footprint_fn prov ~slot ~stmt ~shape:(Taskir.shape_of prog tn) tn)
          tensors;
      ikeys;
      ifns = Array.map (Provenance.interval_fn prov ~slot) ivars;
      (* The walk's memos, shared by every task: tasks hit the same
         footprints, fetch plans and interval lengths whenever their
         dependent bindings agree. Site and interval memos are flat
         arrays over their keys' range, which is at most the number of
         times the walk reaches the site (DESIGN.md, "Flat memos"). A
         footprint reached under different keys (or at different sites)
         resolves to one entry per (tensor, rect), so its fetch plan is
         built once. *)
      cursor = Rect_index.cursor ();
      site_memo = Array.map (fun (_, k) -> Array.make (key_range k) no_inst) sites;
      rect_memo = Array.map (fun _ -> Rect.Tbl.create 64) tensors;
      ival_memo = Array.map (fun k -> Array.make (key_range k) (-1)) ikeys;
      footprints = 0; steps_acc = Array.make nsteps None; red_contribs = Rect.Tbl.create 16;
      dyn_peak = Array.make nprocs 0.0;
      tally = Array.make (3 + Array.length tensors) 0.0;
      (* Per-operand traffic for the utilization report, registered up
         front so zero-traffic operands still show up. *)
      tallied =
        Array.map (Metrics.counter reg)
          (Array.append
             [| "exec.flops"; "exec.bytes_intra"; "exec.bytes_inter" |]
             (Array.map (fun tn -> "exec.bytes_by_tensor." ^ tn) tensors));
      m_tasks; obs; alloc0 }
  in
  Metrics.set (Metrics.gauge reg "exec.setup_wall_s") (now () -. wall_start);
  Ok c

(* {3 Walk} *)

(* A task's effects land as it produces them. Tasks run one after
   another in launch-point order, so metrics, traces, step accumulators,
   checkpoints and reduction bookkeeping see one fixed sequence. *)

(* The bulk-synchronous step of the current bindings. *)
let step_of c =
  let s = ref 0 in
  for i = 0 to Array.length c.seq_strides - 1 do
    let x = c.env.(Array.length c.ldims + i) in
    if x >= 0 then s := !s + (x * c.seq_strides.(i))
  done;
  !s

(* The step's accumulator, preallocated on first touch. *)
let acc_of c step =
  match c.steps_acc.(step) with
  | Some a -> a
  | None ->
      let a = new_step_acc c.nprocs in
      c.steps_acc.(step) <- Some a;
      a

(* The footprint a site needs under the current bindings. *)
let entry c site =
  let t, k = c.sites.(site) in
  let memo = c.site_memo.(site) and key = key_of k c.env in
  let e = memo.(key) in
  if e != no_inst then e
  else begin
    let rect = c.footprint_fns.(t) c.env in
    c.footprints <- c.footprints + 1;
    let e =
      match Rect.Tbl.find c.rect_memo.(t) rect with
      | e -> e
      | exception Not_found ->
          let e = { f_rect = rect; f_bytes = bytes_of_rect rect; f_plan = None } in
          Rect.Tbl.add c.rect_memo.(t) rect e;
          e
    in
    memo.(key) <- e;
    e
  end

(* Placement under faults: an effect landing on a processor that is dead
   at its step executes on its failover target instead ({!Mapper.fallback}
   — the next live linear processor, which also holds the checkpoint
   replica). *)
let remap c ~step p =
  match c.faults with
  | Some f when Injector.has_kills f.inj && Injector.dead f.inj ~step ~proc:p ->
      Mapper.fallback ~nprocs:c.nprocs ~dead:(fun q -> Injector.dead f.inj ~step ~proc:q) p
  | _ -> p

(* Record one payload of tensor [t] moving src -> dst, after remapping; a
   transfer whose ends collapse onto one processor disappears. Traffic
   metrics and cross-rack accounting see the raw bytes (planning never
   changes totals); the payload joins its step's message table, which
   [price] plans into wire messages. Trace consumers see one event per
   fragment. *)
let charge_batch c ~step ~t ~src ~dst (p : Comm_plan.payload) =
  let src = remap c ~step src and dst = remap c ~step dst in
  if src <> dst && p.volume > 0 then begin
    let a = acc_of c step in
    let bytes = 8.0 *. float_of_int p.volume in
    Comm_plan.add a.msgs ~t ~src ~dst p;
    let l = if link_between c.node_of_lin src dst = Cost.Intra then 1 else 2 in
    c.tally.(l) <- c.tally.(l) +. bytes;
    c.tally.(3 + t) <- c.tally.(3 + t) +. bytes;
    if c.rack_of_lin.(src) <> c.rack_of_lin.(dst) then a.cross.(0) <- a.cross.(0) +. bytes;
    match c.trace with
    | Some log ->
        let src = Machine.delinearize c.machine src in
        let dst = Machine.delinearize c.machine dst in
        List.iter
          (fun piece ->
            log :=
              { step; tensor = p.tensor; piece; src; dst; bytes = bytes_of_rect piece } :: !log)
          p.pieces
    | None -> ()
  end

let checkpoint c ~step ~proc rect =
  match c.faults with
  | Some { ckpt = Some ck; _ } when not (Rect.is_empty rect) ->
      Checkpoint.record ck ~step ~proc rect
  | _ -> ()

(* A reduction partial: register the contribution. *)
let add_red c ~step ~proc rect =
  let rproc = remap c ~step proc in
  checkpoint c ~step ~proc:rproc rect;
  match Rect.Tbl.find_opt c.red_contribs rect with
  | Some (b, procs) ->
      (* Under kills, remapping can fold two contributors onto one
         survivor; count it once. Fault-free, keep every contribution. *)
      let kills = match c.faults with Some f -> Injector.has_kills f.inj | None -> false in
      if not (kills && List.mem rproc procs) then
        Rect.Tbl.replace c.red_contribs rect (b, rproc :: procs)
  | None -> Rect.Tbl.add c.red_contribs rect (bytes_of_rect rect, [ rproc ])

let proc_owns c tk t rect = within rect c.proc_rects_t.(t).(tk.proc)
let pieces_of c t e = Rect_index.query ~cursor:c.cursor c.index_t.(t) e.f_rect

let rec same_owners (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> x = y && same_owners xs ys
  | _ -> false

(* The entry's fetch plan: its pieces grouped by owner set, each group
   pre-merged ([Comm_plan.merge_rects]). For cyclic distributions this is
   where thousands of per-piece decisions collapse into a handful of
   per-owner batches. *)
let plan_of c t e =
  match e.f_plan with
  | Some plan -> plan
  | None ->
      let groups : (int list * Rect.t list ref) list ref = ref [] in
      List.iter
        (fun (piece, owners) ->
          match List.find_opt (fun (os, _) -> same_owners os owners) !groups with
          | Some (_, ps) -> ps := piece :: !ps
          | None -> groups := (owners, ref [ piece ]) :: !groups)
        (pieces_of c t e);
      let plan =
        List.rev_map
          (fun (os, ps) ->
            { fg_owners = os; fg_load = Comm_plan.payload c.tensors.(t) (List.rev !ps) })
          !groups
      in
      e.f_plan <- Some plan;
      plan

(* Fetch cost: groups the processor itself owns are free, the rest
   become one fragment batch each (same-node owners preferred). *)
let rec fetch_groups c ~proc ~step t = function
  | [] -> ()
  | g :: gs ->
      if not (mem_int proc g.fg_owners) then begin
        let src =
          match same_node_owner c.node_of_lin c.node_of_lin.(proc) g.fg_owners with
          | -1 -> List.hd g.fg_owners
          | o -> o
        in
        charge_batch c ~step ~t ~src ~dst:proc g.fg_load
      end;
      fetch_groups c ~proc ~step t gs

let charge_fetch c tk t e = fetch_groups c ~proc:tk.proc ~step:(step_of c) t (plan_of c t e)

(* The output instance is done: a reduction partial, or (owner-computes)
   its tile shipped home when a remote processor owns it. *)
let flush_output c tk ~step e =
  (match tk.record with Some r -> r.bops <- B_flush :: r.bops | None -> ());
  if c.reduction then add_red c ~step ~proc:tk.proc e.f_rect
  else begin
    if not (proc_owns c tk c.out_t e.f_rect) then
      List.iter
        (fun (piece, os) ->
          let dst = List.hd os in
          if dst <> tk.proc then
            charge_batch c ~step ~t:c.out_t ~src:tk.proc ~dst
              (Comm_plan.payload c.stmt.lhs.tensor [ piece ]))
        (pieces_of c c.out_t e);
    checkpoint c ~step ~proc:(remap c ~step tk.proc) e.f_rect
  end

let grow tk bytes =
  tk.mem.(0) <- tk.mem.(0) +. bytes;
  if tk.mem.(0) > tk.mem.(1) then tk.mem.(1) <- tk.mem.(0)

let shrink tk bytes = tk.mem.(0) <- tk.mem.(0) -. bytes

(* Materialize the footprint of [site] as the task's instance of tensor
   [t], unless the task already holds exactly that instance. *)
let ensure c tk t site =
  let e = entry c site in
  let cur = tk.inst.(t) in
  let fresh =
    if cur == no_inst then true
    else if cur == e then false
    else begin
      if t = c.out_t then flush_output c tk ~step:(step_of c) cur;
      if tk.counted.(t) then shrink tk cur.f_bytes;
      tk.inst.(t) <- no_inst;
      true
    end
  in
  if fresh then begin
    (* An instance of a locally-owned subrect aliases the owned tile;
       reduction partials for the output are fresh allocations. *)
    let counted = (t = c.out_t && c.reduction) || not (proc_owns c tk t e.f_rect) in
    if counted then grow tk e.f_bytes;
    if t = c.out_t then begin
      (* Reduction partials start at zero; stationary/owner-computes
         outputs are seeded with current values (which only costs
         communication when the statement accumulates into — or reads —
         a tensor this processor does not own). *)
      if ((not c.reduction) && c.stmt.accum) || c.reads_out then charge_fetch c tk t e;
      match tk.record with Some r -> r.bops <- B_out e.f_rect :: r.bops | None -> ()
    end
    else charge_fetch c tk t e;
    tk.inst.(t) <- e;
    tk.counted.(t) <- counted;
    if t = c.out_t && c.reads_out then begin
      if tk.out_read != no_inst && tk.out_read_counted then shrink tk tk.out_read.f_bytes;
      let counted_r = not (proc_owns c tk t e.f_rect) in
      if counted_r then grow tk e.f_bytes;
      tk.out_read <- e;
      tk.out_read_counted <- counted_r
    end
  end

(* Bind the leaf the walk has reached against the instances the task
   holds and the bindings in [env]. Inputs, and the output a
   self-referencing statement reads, are read in place from the caller's
   tensors; the output is written into the block of its instance. *)
let bind_leaf c tk r =
  let held t (e : fentry) =
    if e == no_inst then invalid_arg ("leaf recorded without an instance of " ^ c.tensors.(t));
    e.f_rect
  in
  let offset st lo =
    let off = ref 0 in
    Array.iteri (fun d x -> off := !off + (x * st.(d))) lo;
    !off
  in
  match c.named with
  | Some (kernel, _) ->
      (* A substituted kernel runs over the leaf's footprint of each
         operand: an input's starts at its [lo] in the caller's tensor,
         the output's at [lo] minus the instance's [lo] in the block. *)
      let operand t =
        let inst = held t tk.inst.(t) in
        let need = (entry c c.leaf_site.(t)).f_rect in
        if not (Rect.subset need inst) then
          invalid_arg ("leaf footprint outside the instance of " ^ c.tensors.(t));
        let op =
          if t = c.out_t then
            let st = Ints.row_major_strides (Rect.extents inst) in
            let lo = Array.mapi (fun d x -> x - inst.lo.(d)) need.lo in
            { Expr_stage.src = out_src; off = offset st lo; st }
          else { src = r.src.(t); off = offset r.strides.(t) need.lo; st = r.strides.(t) }
        in
        (op, Rect.extents need)
      in
      let ops = Array.map operand r.order in
      let dims = Kreg.dims ~kernel (Array.to_list (Array.map snd ops)) in
      B_leaf (Expr_stage.Kernel { kernel; dims; operands = Array.map fst ops })
  | None -> (
      let in_caller t rect =
        { Expr_stage.src = r.src.(t); rect; base = offset r.strides.(t) rect.Rect.lo;
          strides = r.strides.(t) }
      in
      let geom i t =
        if t <> c.out_t then in_caller t (held t tk.inst.(t))
        else if i < Array.length r.slot_t - 1 then in_caller t (held t tk.out_read)
        else
          let rect = held t tk.inst.(t) in
          { src = out_src; rect; base = 0; strides = Ints.row_major_strides (Rect.extents rect) }
      in
      let rec slot_env v s =
        if s = Array.length c.slot_vars then None
        else if String.equal c.slot_vars.(s) v then Some c.env.(s)
        else slot_env v (s + 1)
      in
      let bind sp =
        Expr_stage.bind sp ~env:(fun v -> slot_env v 0) ~geoms:(Array.mapi geom r.slot_t)
      in
      match Option.bind r.staged bind with
      | Some b -> B_leaf b
      | None ->
          let env = Hashtbl.create 16 in
          Array.iteri (fun s v -> Hashtbl.replace env v c.env.(s)) c.slot_vars;
          B_eval env)

let exec_leaf c tk =
  let step = step_of c in
  (* Leaf iteration count: a product of per-variable interval lengths. *)
  let points = ref 1.0 in
  for i = 0 to Array.length c.ikeys - 1 do
    let memo = c.ival_memo.(i) and key = key_of c.ikeys.(i) c.env in
    if memo.(key) < 0 then begin
      let lo, hi = c.ifns.(i) c.env in
      memo.(key) <- Int.max 0 (hi - lo)
    end;
    points := !points *. float_of_int memo.(key)
  done;
  let bytes = ref 0.0 in
  for t = 0 to Array.length tk.inst - 1 do
    if tk.inst.(t) != no_inst then bytes := !bytes +. tk.inst.(t).f_bytes
  done;
  if tk.out_read != no_inst then bytes := !bytes +. tk.out_read.f_bytes;
  let proc = remap c ~step tk.proc and flops = float_of_int c.ops *. !points in
  let a = acc_of c step in
  a.cflops.(proc) <- a.cflops.(proc) +. flops;
  a.cbytes.(proc) <- a.cbytes.(proc) +. !bytes;
  a.ctouch.(proc) <- true;
  c.tally.(0) <- c.tally.(0) +. flops;
  match tk.record with Some r -> r.bops <- bind_leaf c tk r :: r.bops | None -> ()

let rec walk_node c tk = function
  | N_seq { slot; extent; body } ->
      for x = 0 to extent - 1 do
        c.env.(slot) <- x;
        walk_node c tk body
      done;
      c.env.(slot) <- -1
  | N_ensure { t; site; body } ->
      ensure c tk t site;
      walk_node c tk body
  | N_leaf -> exec_leaf c tk

let run_task c tk point =
  let proc =
    Machine.linearize c.machine (Mapper.proc_of_point c.machine ~launch_dims:c.ldims point)
  in
  tk.proc <- proc;
  Array.fill tk.inst 0 (Array.length tk.inst) no_inst;
  Array.fill tk.counted 0 (Array.length tk.counted) false;
  tk.out_read <- no_inst;
  tk.out_read_counted <- false;
  tk.mem.(0) <- 0.0;
  tk.mem.(1) <- 0.0;
  Array.fill c.env 0 (Array.length c.env) (-1);
  Array.blit point 0 c.env 0 (Array.length c.ldims);
  walk_node c tk c.tree;
  (* Flush the cached output instance (write-back or reduction). The
     sequential loop vars are gone by now, so attribute the flush to the
     final step explicitly — it is the step whose end produced this state
     (matters only to fault remapping and checkpoints). *)
  if tk.inst.(c.out_t) != no_inst then flush_output c tk ~step:(c.nsteps - 1) tk.inst.(c.out_t);
  Metrics.inc_int c.m_tasks 1;
  if tk.mem.(1) > c.dyn_peak.(proc) then c.dyn_peak.(proc) <- tk.mem.(1)

(* One task per launch point, in launch-point order, on the calling
   domain. Simulated time never depends on the host: it is assembled from
   the tasks' effects, not from host timing. Returns each point's bound
   operations when recording, empty ones otherwise. *)
let walk c record =
  let t0 = now () in
  let n = Array.length c.tensors in
  let tk =
    { proc = 0; inst = Array.make n no_inst; counted = Array.make n false; out_read = no_inst;
      out_read_counted = false; mem = Array.make 2 0.0; record }
  in
  let bops =
    Array.map
      (fun point ->
        run_task c tk point;
        match record with
        | Some r ->
            let ops = Array.of_list (List.rev r.bops) in
            r.bops <- [];
            ops
        | None -> [||])
      c.points
  in
  (* The tallies reach their counters once, each as one sum in walk
     order. Pricing needs none of the walk's memos: let them go before it
     runs. *)
  Array.iteri (fun i m -> Metrics.inc m c.tally.(i)) c.tallied;
  Array.fill c.site_memo 0 (Array.length c.site_memo) [||];
  Array.iter Rect.Tbl.reset c.rect_memo;
  Array.fill c.ival_memo 0 (Array.length c.ival_memo) [||];
  Metrics.set (Metrics.gauge c.reg "exec.compute_wall_s") (now () -. t0);
  bops

(* {3 Price} *)

(* What pricing hands emission. *)
type priced = {
  overhead : float;
  tasks_per_proc : int;
  rows : Cp.step list;
  groups : Comm_plan.group list array;  (* per step, when profiling *)
  time : float;  (* of the steps *)
  red_time : float;
  episodes : (int * int * int * float * float * float) list;
      (* per kill, in strike order: proc, kill step, replay-from, detect,
         restore, replay *)
  recovery : float;
  total : float;
}

(* Each kill is an independent recovery episode: the failure is detected
   (a heartbeat timeout), every processor rolls back to the last
   checkpoint boundary — restoring from its buddy replica the snapshots
   the replayed steps will rewrite — and the steps from the boundary
   through the kill step are replayed at their assembled cost. Without
   checkpointing the rollback is a restart: replay from step 0 with
   nothing to restore. The simulated clock pays for all of it; checkpoint
   *writes* are assumed overlapped with the run (their modeled cost is
   reported as [exec.checkpoint_time], never added to [exec.time]), which
   keeps fault-free runs with checkpointing on byte-identical to plain
   runs. *)
let recover c f rows =
  let buddy_link q =
    let b = (q + 1) mod c.nprocs in
    if c.node_of_lin.(q) = c.node_of_lin.(b) then Cost.Intra else Cost.Inter
  in
  (* The worst over processors of [time] on [bytes q] (where nonzero). *)
  let worst bytes time =
    let w = ref 0.0 in
    for q = 0 to c.nprocs - 1 do
      let b = bytes q in
      if b > 0.0 then begin
        let t = time q b in
        if t > !w then w := t
      end
    done;
    !w
  in
  let episodes =
    if not (Injector.has_kills f.inj) then []
    else begin
      let row_cost = Array.make c.nsteps 0.0 in
      List.iter (fun (r : Cp.step) -> row_cost.(r.Cp.index) <- r.Cp.cost) rows;
      List.map
        (fun (proc, k) ->
          Metrics.inc_int f.m_injected 1;
          let b = Injector.last_boundary f.inj ~step:k in
          Metrics.inc_int f.m_replayed (k - b + 1);
          let replay = ref 0.0 in
          for s = b to k do
            replay := !replay +. row_cost.(s)
          done;
          let restore =
            match f.ckpt with
            | Some ck ->
                worst
                  (fun q ->
                    let bytes = Checkpoint.range_bytes ck ~from_step:b ~to_step:k ~proc:q in
                    if bytes > 0.0 then Metrics.inc f.m_restore_bytes bytes;
                    bytes)
                  (fun q bytes -> Cost.restore_time c.cost (buddy_link q) ~bytes)
            | None -> 0.0
          in
          (proc, k, b, Cost.detect_time c.cost, restore, !replay))
        (Injector.kills f.inj)
    end
  in
  (match f.ckpt with
  | Some ck ->
      Metrics.inc f.m_ckpt_bytes (Checkpoint.total_bytes ck);
      (* Modeled cost of streaming every step snapshot to its buddy:
         informational only (see above). *)
      let wtime =
        List.fold_left
          (fun acc s ->
            acc
            +. worst
                 (fun q -> Checkpoint.bytes ck ~step:s ~proc:q)
                 (fun q bytes -> Cost.checkpoint_time c.cost (buddy_link q) ~bytes))
          0.0 (Checkpoint.write_steps ck)
      in
      Metrics.set (Metrics.gauge c.reg "exec.checkpoint_time") wtime
  | None -> ());
  episodes

(* Deterministic order throughout: steps ascending, copy groups sorted by
   key within each step, processors ascending — so two runs of the same
   spec produce identical event streams and bit-identical times.
   Everything is read off the flat per-step accumulators. *)
let price c =
  let t0 = now () in
  let cost = c.cost and nprocs = c.nprocs in
  let tasks_per_proc = Ints.ceil_div (Array.length c.points) nprocs in
  let overhead = float_of_int tasks_per_proc *. cost.Cost.task_overhead in
  let start = ref overhead in
  (* Per-processor slots and planned copy groups only feed the profile's
     timeline and events; without a profile the step cost (the max over
     processors, which any order computes exactly) is all that is kept. *)
  let profiling = Option.is_some c.profile in
  let groups = Array.make c.nsteps [] in
  let total_fragments = ref 0 and total_messages = ref 0 in
  let rev_rows = ref [] in
  for step = 0 to c.nsteps - 1 do
    match c.steps_acc.(step) with
    | None -> ()
    | Some a ->
        let row, glist =
          price_step c.machine cost c.obs ~link:(link_between c.node_of_lin)
            ~kernel:c.priced_kernel ~faults:c.faults ~profiling ~step ~start:!start a
        in
        if profiling then groups.(step) <- glist;
        total_fragments := !total_fragments + Comm_plan.fragments a.msgs;
        total_messages := !total_messages + row.Cp.messages;
        start := !start +. row.Cp.cost;
        rev_rows := row :: !rev_rows
  done;
  let rows = List.rev !rev_rows in
  let time = List.fold_left (fun acc (r : Cp.step) -> acc +. r.Cp.cost) 0.0 rows in
  (* Reduction epilogue: independent tiles reduce in parallel, folded in
     rect order. *)
  let red_time =
    Rect.Tbl.fold (fun k v acc -> (k, v) :: acc) c.red_contribs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.fold_left
         (fun acc (_, (bytes, procs)) ->
           let k = List.length procs in
           if k <= 1 then acc
           else begin
             let first = List.hd procs in
             let link =
               if List.for_all (fun p -> c.node_of_lin.(p) = c.node_of_lin.(first)) procs
               then Cost.Intra
               else Cost.Inter
             in
             Metrics.inc
               c.tallied.(if link = Cost.Intra then 1 else 2)
               (bytes *. float_of_int (k - 1));
             Metrics.inc_int c.obs.m_messages (k - 1);
             max acc (Cost.reduce_time cost link ~bytes ~contributors:k)
           end)
         0.0
  in
  let episodes = match c.faults with Some f -> recover c f rows | None -> [] in
  let recovery =
    List.fold_left
      (fun acc (_, _, _, detect, restore, replay) -> acc +. detect +. restore +. replay)
      0.0 episodes
  in
  let reg = c.reg in
  if Option.is_some c.faults then Metrics.set (Metrics.gauge reg "exec.recovery_time") recovery;
  let total = overhead +. time +. red_time +. recovery in
  Metrics.set (Metrics.gauge reg "exec.time") total;
  Metrics.set (Metrics.gauge reg "exec.steps") (float_of_int c.nsteps);
  Metrics.set (Metrics.gauge reg "exec.overhead_time") overhead;
  Metrics.set (Metrics.gauge reg "exec.reduction_time") red_time;
  set_coalesce_ratio reg ~fragments:!total_fragments ~messages:!total_messages;
  (* Memory accounting: the owned tiles of every tensor, plus the walk's
     dynamic peak. *)
  let static_mem = Array.make nprocs 0.0 in
  Array.iter
    (Array.iteri (fun p rs ->
         List.iter (fun r -> static_mem.(p) <- static_mem.(p) +. bytes_of_rect r) rs))
    c.proc_rects_t;
  let mem_limit = Machine.mem_per_proc_bytes c.machine in
  let g_peak = Metrics.gauge reg "exec.peak_mem" in
  let g_oom = Metrics.gauge reg "exec.oom" in
  for p = 0 to nprocs - 1 do
    let m = static_mem.(p) +. c.dyn_peak.(p) in
    Metrics.set_max g_peak m;
    if m > mem_limit then Metrics.set g_oom 1.0
  done;
  Metrics.set (Metrics.gauge reg "exec.assembly_wall_s") (now () -. t0);
  { overhead; tasks_per_proc; rows; groups; time; red_time; episodes; recovery; total }

(* {3 Emit} *)

let emit c p =
  match c.profile with
  | None -> ()
  | Some (profile, run) ->
      let sink = Profile.sink profile in
      let pid = run.Profile.pid in
      let rt = c.nprocs in
      Span.thread_name sink ~pid ~tid:rt "runtime";
      name_proc_tracks sink ~pid c.machine;
      if p.overhead > 0.0 then
        Span.complete sink ~name:"task launch overhead" ~cat:"runtime" ~pid ~tid:rt ~ts:0.0
          ~dur:p.overhead
          ~attrs:[ ("tasks_per_proc", Event.Int p.tasks_per_proc) ]
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
          Span.counter sink ~name:"bytes moved" ~pid ~tid:rt ~ts:row.Cp.start row.Cp.bytes;
          emit_step sink ~pid ~link:(link_between c.node_of_lin) row
            (Option.get c.steps_acc.(row.Cp.index))
            p.groups.(row.Cp.index))
        p.rows;
      if p.red_time > 0.0 then
        Span.complete sink ~name:"distributed reduction" ~cat:"reduction" ~pid ~tid:rt
          ~ts:(p.overhead +. p.time) ~dur:p.red_time ();
      (* Fault lanes: a kill instant on the victim's own track at the step
         it strikes, and one recovery span per episode (detect + restore +
         replay) chained after the reduction epilogue. Only emitted when a
         kill actually strikes, so fault-free event streams are untouched. *)
      let start_of k =
        match List.find_opt (fun (r : Cp.step) -> r.Cp.index = k) p.rows with
        | Some r -> r.Cp.start
        | None -> p.overhead
      in
      let cursor = ref (p.overhead +. p.time +. p.red_time) in
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
        p.episodes;
      run.Profile.timeline <-
        Some
          {
            Cp.nprocs = c.nprocs;
            overhead = p.overhead;
            reduction = p.red_time;
            recovery = p.recovery;
            steps = p.rows;
            total = p.total;
          }

(* Price and emit a walked simulation; its modeled stats. *)
let finish c =
  emit c (price c);
  (* Host allocation accounting: OCaml words this simulation allocated
     (bigarray payloads live outside the heap and are not counted).
     Gauges only — [Stats.of_registry] reads a fixed name set, so the
     derived stats and the determinism contract are untouched.
     {!Distal_obs.Report.host_execution} prints them. *)
  let minor1, major1 = alloc_words () in
  Metrics.set (Metrics.gauge c.reg "exec.alloc_minor_words") (minor1 -. fst c.alloc0);
  Metrics.set (Metrics.gauge c.reg "exec.alloc_major_words") (major1 -. snd c.alloc0);
  (* Footprints the walk computed, one per distinct key per site. *)
  Metrics.set (Metrics.gauge c.reg "exec.footprints") (float_of_int c.footprints);
  (match c.trace with Some log -> log := List.rev !log | None -> ());
  Stats.of_registry c.reg

(* {2 Compiled executable plans} *)

module Buf_pool = Distal_support.Buf_pool

(* Plan once per (program x schedule x machine x options), run many times
   against new tensor data. The plan is one simulation whose walk binds
   every data operation as it reaches it ([bop]), so the run phase only
   zero-fills output instances, from a size-classed pool ({!Buf_pool})
   with an arena per launch point, calls the bound leaves and merges. *)

type eplan = {
  ep_spec : spec;
  ep_stats : Stats.t;  (* modeled per-run stats, fixed at plan time *)
  ep_ops : bop array array;  (* per launch point, launch-point order *)
  ep_tensors : string array;  (* sorted; a [src] indexes it *)
  ep_shapes : int array array;
  ep_guards : (string -> int option) -> bool;
  ep_points : (string * ((string -> int option) -> int option)) list;
      (* the [Expr.eval] fallback's guard and index points, compiled once *)
  ep_leaf_vars : string array;  (* Scalar_loops nest, outermost first *)
  ep_reads_out : bool;
  ep_accum : bool;
  ep_out_name : string;
  ep_pool : Buf_pool.t;
  ep_m : Mutex.t;  (* one run at a time: arenas and bound leaves' loop state are per-plan *)
  mutable ep_runs : int;
}

let plan ?faults ?trace ?profile spec =
  let prog = spec.program in
  let stmt = prog.stmt in
  let* c = resolve ?faults ?trace ?profile spec in
  let tensors = Array.of_list (List.sort_uniq compare (Expr.tensors stmt)) in
  let index tn = name_index c.tensors tn 0 in
  (* Staged leaf evaluation: the scalar loop nest compiled once into flat
     loops over precomputed strides ({!Expr_stage}); [None] when staging
     cannot express the nest, leaving the [Expr.eval] fallback. *)
  let staged =
    match c.leaf_vars with [] -> None | vars -> Expr_stage.plan prog.prov ~stmt ~leaf_vars:vars
  in
  let order = match c.named with Some (_, o) -> Array.of_list (List.map index o) | None -> [||] in
  let slot_t =
    match staged with
    | Some sp -> Array.map (fun (a : Expr.access) -> index a.tensor) (Expr_stage.slots sp)
    | None -> [||]
  in
  let src = Array.map (fun tn -> name_index tensors tn 0) c.tensors in
  let strides = Array.map (fun tn -> Ints.row_major_strides (Taskir.shape_of prog tn)) c.tensors in
  let ep_ops = walk c (Some { staged; src; strides; order; slot_t; bops = [] }) in
  Ok
    { ep_spec = spec; ep_stats = finish c; ep_ops; ep_tensors = tensors;
      ep_shapes = Array.map (Taskir.shape_of prog) tensors;
      ep_guards = Provenance.guards_fn prog.prov;
      ep_points =
        List.map (fun v -> (v, Provenance.raw_point_fn prog.prov v)) (Expr.index_vars stmt);
      ep_leaf_vars = Array.of_list c.leaf_vars; ep_reads_out = c.reads_out;
      ep_accum = stmt.accum; ep_out_name = stmt.lhs.tensor;
      ep_pool = Buf_pool.create (max 1 (Array.length ep_ops)); ep_m = Mutex.create (); ep_runs = 0 }

type leaf_tiers = { tiled : int; staged : int; eval : int }

let plan_leaf_tiers ep =
  Array.fold_left
    (Array.fold_left (fun t -> function
       | B_leaf (Expr_stage.Kernel _) -> { t with tiled = t.tiled + 1 }
       | B_leaf (Expr_stage.Nest _ | Expr_stage.Empty) -> { t with staged = t.staged + 1 }
       | B_eval _ -> { t with eval = t.eval + 1 }
       | B_out _ | B_flush -> t))
    { tiled = 0; staged = 0; eval = 0 } ep.ep_ops

let plan_stats ep = { ep.ep_stats with Stats.time = ep.ep_stats.Stats.time }
let plan_runs ep = ep.ep_runs
let plan_pool_stats ep = Buf_pool.stats ep.ep_pool

(* The buffer a tensor the run does not read stands in for. *)
let no_data = Dense.create [| 0 |]

let run_plan ?(alloc = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout) ?domains ep
    ~data =
  let stmt = ep.ep_spec.program.stmt and prov = ep.ep_spec.program.prov in
  let out_name = ep.ep_out_name in
  (* Every tensor the statement reads needs data of the spec's shape; the
     output only when it is accumulated into or read on the right-hand
     side. Reading in place relies on the shapes: instance offsets are
     fixed against them at plan time. *)
  let caller = Array.make (Array.length ep.ep_tensors) no_data in
  let rec gather t =
    if t = Array.length ep.ep_tensors then Ok ()
    else
      let tn = ep.ep_tensors.(t) in
      match List.assoc_opt tn data with
      | Some d when Ints.equal (Dense.shape d) ep.ep_shapes.(t) ->
          caller.(t) <- d;
          gather (t + 1)
      | Some d ->
          errf "data for tensor %s has shape %s, the spec declares %s" tn
            (Ints.to_string (Dense.shape d))
            (Ints.to_string ep.ep_shapes.(t))
      | None ->
          if tn = out_name && (not ep.ep_accum) && not ep.ep_reads_out then gather (t + 1)
          else errf "no data given for tensor %s" tn
  in
  let* () = gather 0 in
  let oi = name_index ep.ep_tensors out_name 0 in
  let out_global = Dense.of_buf (alloc (Ints.prod ep.ep_shapes.(oi))) ep.ep_shapes.(oi) in
  if ep.ep_accum then
    Bigarray.Array1.blit (Dense.unsafe_data caller.(oi)) (Dense.unsafe_data out_global)
  else Dense.fill out_global 0.0;
  let bufs = Array.map Dense.unsafe_data caller in
  (* Runs of one plan serialize: the arenas, the parked free lists and
     the bound leaves' loop state (nest offsets, eval environments) are
     per-plan state. Different plans run concurrently without contact. *)
  Mutex.lock ep.ep_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock ep.ep_m) @@ fun () ->
  let pool = ep.ep_pool in
  let npoints = Array.length ep.ep_ops in
  (* Per-point merge contributions in flush order: (rect, view, block).
     Blocks outlive their task — they go back to their point's arena
     only after the serial merge reads them. *)
  let contribs = Array.make npoints [] in
  (* One runner per lane, made on its first point. A lane is one domain
     for the whole loop, so a runner's state has one owner. *)
  let hpool = Pool.get ?size:domains () in
  let runners = Array.make (Pool.size hpool) None in
  let lane_runner () =
    let out : (Rect.t * Dense.t * Buf_pool.buf) option ref = ref None in
    let cur_out () =
      match !out with
      | Some o -> o
      | None -> invalid_arg ("plan leaf executed without an instance of " ^ out_name)
    in
    let buf_of src =
      if src <> out_src then bufs.(src) else match cur_out () with _, _, b -> b
    in
    let eval_leaf env =
      (* The generic loop, for nests staging cannot express: every
         point's guards, index points and statement tree evaluated
         through the environment. *)
      let out_rect, out_v, _ = cur_out () in
      let envf = Hashtbl.find_opt env in
      let lookup (a : Expr.access) coord =
        Dense.get caller.(name_index ep.ep_tensors a.tensor 0) coord
      in
      Ints.iter_box (Array.map (Provenance.extent prov) ep.ep_leaf_vars) (fun pt ->
          Array.iteri (fun i v -> Hashtbl.replace env v pt.(i)) ep.ep_leaf_vars;
          if ep.ep_guards envf then begin
            let point v =
              match (List.assoc v ep.ep_points) envf with
              | Some x -> x
              | None -> invalid_arg ("unbound index variable " ^ v)
            in
            let value = Expr.eval stmt ~lookup ~point in
            let coord = Array.of_list (List.map point stmt.lhs.indices) in
            let local = Array.mapi (fun d c -> c - (out_rect : Rect.t).lo.(d)) coord in
            Dense.add_at out_v local value
          end)
    in
    let release arena =
      (match !out with Some (_, _, b) -> Buf_pool.release pool arena b | None -> ());
      out := None
    in
    fun i ->
      let arena = Buf_pool.arena pool i and out_contribs = ref [] in
      for k = 0 to Array.length ep.ep_ops.(i) - 1 do
        match ep.ep_ops.(i).(k) with
        | B_out rect ->
            release arena;
            let b = Buf_pool.acquire pool arena (Rect.volume rect) in
            let v = Dense.of_buf b (Rect.extents rect) in
            Dense.fill v 0.0;
            out := Some (rect, v, b)
        | B_leaf (Expr_stage.Kernel { kernel; dims; operands }) ->
            let view (o : Expr_stage.operand) =
              { Kreg.buf = buf_of o.src; off = o.off; st = o.st }
            in
            Kreg.run_views ~kernel ~dims (Array.map view operands)
        | B_leaf (Expr_stage.Nest nest) -> Expr_stage.run_nest nest buf_of
        | B_leaf Expr_stage.Empty -> ()
        | B_eval env -> eval_leaf env
        | B_flush ->
            (match !out with Some o -> out_contribs := o :: !out_contribs | None -> ());
            out := None
      done;
      contribs.(i) <- List.rev !out_contribs;
      release arena
  in
  Pool.parallel_for hpool ~n:npoints (fun ~lane i ->
      if Option.is_none runners.(lane) then runners.(lane) <- Some (lane_runner ());
      Option.get runners.(lane) i);
  (* Serial merge in launch-point order, flush order within a task: one
     accumulation order whatever the domain count, so outputs are
     byte-identical across pool sizes. *)
  for i = 0 to npoints - 1 do
    List.iter
      (fun (rect, v, b) ->
        if not (Rect.is_empty rect) then
          Dense.accumulate_into ~src:v ~dst:out_global rect;
        Buf_pool.release pool (Buf_pool.arena pool i) b)
      contribs.(i)
  done;
  ep.ep_runs <- ep.ep_runs + 1;
  Ok { output = Some out_global; stats = plan_stats ep }

(* {2 One-shot execution} *)

let execute ?(mode = Full) ?domains ?trace ?profile ?faults spec ~data =
  match mode with
  | Model ->
      let* c = resolve ?trace ?profile ?faults spec in
      ignore (walk c None);
      Ok { output = None; stats = finish c }
  | Full ->
      let* ep = plan ?faults ?trace ?profile spec in
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
  let link_of src dst = link_between node_of_lin src dst in
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
                Metrics.inc (if link_of s d = Cost.Intra then m_bytes_intra else m_bytes_inter) bytes;
                if rack_of_lin.(s) <> rack_of_lin.(d) then a.cross.(0) <- a.cross.(0) +. bytes;
                Comm_plan.add a.msgs ~t:0 ~src:s ~dst:d (Comm_plan.payload "" [ piece ])
              end)
            src_tiles)
        downers)
    (tiles dst);
  let row, glist =
    price_step machine cost (step_obs reg) ~link:link_of ~kernel:None ~faults:None
      ~profiling:(Option.is_some prun) ~step:0 ~start:0.0 a
  in
  Metrics.set (Metrics.gauge reg "exec.time") row.Cp.cost;
  Metrics.set (Metrics.gauge reg "exec.steps") 1.0;
  set_coalesce_ratio reg ~fragments:(Comm_plan.fragments a.msgs) ~messages:row.Cp.messages;
  (match (profile, prun) with
  | Some p, Some run ->
      let sink = Profile.sink p and pid = run.Profile.pid in
      name_proc_tracks sink ~pid machine;
      emit_step sink ~pid ~link:link_of row a glist;
      run.Profile.timeline <-
        Some
          { Cp.nprocs; overhead = 0.0; reduction = 0.0; recovery = 0.0; steps = [ row ];
            total = row.Cp.cost }
  | _ -> ());
  Stats.of_registry reg
