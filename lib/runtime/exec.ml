module Ints = Distal_support.Ints
module Pool = Distal_support.Pool
module Dense = Distal_tensor.Dense
module Rect = Distal_tensor.Rect
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

(* Words the calling domain has allocated so far, exactly: minor (off the
   live allocation pointer) and straight on the major heap ([Gc.counters]'
   major words less its promoted ones). Both counters are per domain. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

(* The footprints of one tensor that the walk has met ("entries"), each
   shared by every task whose dependent loop variables take the same
   values at a site, numbered from 0. Entry [e]'s rect is [2 * rank]
   ints at [co.(e * 2 * rank)], lo and hi interleaved; [ent_w] ints at
   [ent.(e * ent_w)] hold its volume, the owner set of the one tile
   holding it ({!Distnot.holders}; -1 when no tile does), and where its
   fetch plan and its write-back start in [pl] (-1 until first used). A
   plan is a pair count, then per pair an owner set (a fetch) or a
   destination (a write-back) and the id of the payload it moves.
   [slots] finds an entry by its rect: open addressing over a power of
   two, entry + 1, 0 when free. Nothing here is a per-entry object, so
   the walk's state is four int arrays per tensor whatever the number of
   tasks. *)
type fstore = {
  rank : int;
  mutable co : int array;
  mutable ent : int array;
  mutable n : int;
  mutable pl : int array;
  mutable npl : int;
  mutable slots : int array;
}

let ent_w = 4
let e_vol = 0
let e_hold = 1
let e_fplan = 2
let e_wplan = 3

(* The arrays of the stores a finished walk gave back, per domain and
   tensor index (the first 8): the next walk's store of that tensor
   index starts from them, so a warm domain's walks grow no store. Grown
   per walk instead, they would be allocated on the major heap at every
   doubling. *)
let spares = Distal_support.Spare.create 8

let new_fstore t rank =
  let co, ent, pl, slots =
    match Distal_support.Spare.take spares t with
    | Some arrays -> arrays
    | None -> (Array.make 64 0, Array.make 64 0, Array.make 64 0, Array.make 64 0)
  in
  Array.fill slots 0 (Array.length slots) 0;
  { rank; co; ent; n = 0; pl; npl = 0; slots }

let free_fstore t fs =
  Distal_support.Spare.give spares t (fs.co, fs.ent, fs.pl, fs.slots);
  fs.co <- [||];
  fs.ent <- [||];
  fs.pl <- [||];
  fs.slots <- [||]

let room = Ints.room

let rect_hash (co : int array) o w =
  let h = ref 0 in
  for i = o to o + w - 1 do
    h := Ints.mix !h co.(i)
  done;
  !h land max_int

let rec same_coords (a : int array) x (b : int array) y i w =
  i = w || (a.(x + i) = b.(y + i) && same_coords a x b y (i + 1) w)

(* The slot of the entry at [co.(o)] in [slots] of length a power of
   two: where it sits, or the free slot where it goes. *)
let rec probe fs slots (co : int array) o w i =
  let e = slots.(i) - 1 in
  if e < 0 || same_coords fs.co (e * w) co o 0 w then i
  else probe fs slots co o w ((i + 1) land (Array.length slots - 1))

let rehash fs =
  let w = 2 * fs.rank in
  let slots = Array.make (2 * Array.length fs.slots) 0 in
  for e = 0 to fs.n - 1 do
    let o = e * w in
    slots.(probe fs slots fs.co o w (rect_hash fs.co o w land (Array.length slots - 1))) <- e + 1
  done;
  fs.slots <- slots

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
   indices, each [Ensure] to its footprint site. A sequential loop's
   value moves the bulk-synchronous step by [stride]. *)
type node =
  | N_seq of { slot : int; extent : int; stride : int; body : node }
  | N_ensure of { t : int; site : int; body : node }
  | N_leaf

(* The index of [name] in [names] (compared physically first). *)
let rec name_index (names : string array) name i =
  if i = Array.length names then invalid_arg ("unknown tensor " ^ name)
  else if names.(i) == name || String.equal names.(i) name then i
  else name_index names name (i + 1)

(* The node of each processor, by linear index. *)
let nodes_of_procs machine =
  Array.init (Machine.num_procs machine) (fun p ->
      Machine.node_of machine (Machine.delinearize machine p))

(* The link between two processors, given each one's node. *)
let[@inline] link_between node_of_lin src dst =
  if node_of_lin.(src) = node_of_lin.(dst) then Cost.Intra else Cost.Inter

(* The owner a fetch reads from: the first on [node], else the first. *)
let rec source node_of_lin node (os : int array) i =
  if i = Array.length os then os.(0)
  else if node_of_lin.(os.(i)) = node then os.(i)
  else source node_of_lin node os (i + 1)

(* {2 Bound operations} *)

(* The data path of one launch point, bound while the planning walk runs.
   A task's control flow — instance footprints, communicate points, leaf
   schedule — depends only on the spec, never on tensor contents, so the
   walk binds every data operation as it reaches it and [run_plan], the
   one data path, replays them against tensor data with pooled buffers.
   The plan numbers its output instances ("slots") in launch-point order,
   then in walk order within a point. A leaf is bound to its tier, a
   registry kernel or a staged nest, whose operands are located by
   buffer ([src] in a run's buffer table: a tensor's index in
   [ep_tensors], or past them, [k] more for output slot [k]), offset and
   strides. *)
type bop =
  | B_out of int  (* zero-fill slot [k]'s block; the leaves after it write there *)
  | B_leaf of Expr_stage.bound

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

(* A run's step state, allocated once. The walk's charges are flat over
   (step, processor), at [step * nprocs + proc]: leaf flops, bytes
   touched, whether the processor computed; per step, whether anything
   touched it (only such a step is priced), its cross-rack bytes and its
   fetches. Pricing's per-processor occupancies, communication flags and
   times hold one step. *)
type steps = {
  msgs : Comm_plan.table;
  cflops : float array;
  cbytes : float array;
  computed : Bytes.t;
  active : Bytes.t;
  cross : float array;
  send : float array;
  recv : float array;
  sent : Bytes.t;
  compute : float array;
  comm : float array;
}

let new_steps ~names ~nsteps nprocs =
  let floats n = Array.make n 0.0 and flags n = Bytes.make n '\000' in
  { msgs = Comm_plan.table ~names ~steps:nsteps; cflops = floats (nsteps * nprocs);
    cbytes = floats (nsteps * nprocs); computed = flags (nsteps * nprocs); active = flags nsteps;
    cross = floats nsteps; send = floats nprocs; recv = floats nprocs; sent = flags nprocs;
    compute = floats nprocs; comm = floats nprocs }

let on b i = Bytes.get b i <> '\000'
let set_on b i = Bytes.set b i '\001'

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
       broadcast groups ([Comm_plan.plan]: unioning multi-payload
       triples, grouping, sorting) and charging them ([price_groups]).
       Filling the tables happens during the task walk and is not
       included. Wall-clock observability only: like
       [exec.compute_wall_s] it never feeds the run's record or
       simulated time, so determinism is untouched. *)
    m_plan_host = Metrics.counter reg "exec.plan_wall_s";
    h_copy_bytes = Metrics.histogram reg "exec.copy_bytes";
    h_step_time = Metrics.histogram reg "exec.step_time";
  }

(* Charge one step's copy groups into the per-processor send/recv occupancy
   arrays, and observe them (so [exec.messages] counts wire messages, not
   raw fragments); returns (payload bytes moved, messages). Broadcasts use
   the large-message collective model; a strided run also pays the
   packing cost on its endpoints. The cost model is pure, so alike
   messages are priced once: consecutive point-to-point ones (a shift),
   and a broadcast's receivers per link kind. Plain loops, no closures:
   a float a closure updates is boxed at every update. *)
let price_groups cost obs ~node_of ~send ~recv gs =
  let bytes = ref 0.0 and messages = ref 0 and coalesced = ref 0 in
  (* The last point-to-point price and its link, bytes and fragments. *)
  let p2p = ref 0.0 and p2p_inter = ref false and p2p_bytes = ref (-1.0) and p2p_frags = ref 0 in
  (* A broadcast's per-link-kind prices (0 intra, 1 inter). *)
  let priced = [| false; false |] and part = [| 0.0; 0.0 |] and bcast = [| 0.0; 0.0 |] in
  for g = 0 to Comm_plan.count gs - 1 do
    let k = Comm_plan.receivers gs g and src = Comm_plan.src gs g in
    let gbytes = 8.0 *. float_of_int (Comm_plan.volume_of gs g) and frags = Comm_plan.nfrag gs g in
    bytes := !bytes +. (gbytes *. float_of_int k);
    messages := !messages + k;
    if frags > 1 then incr coalesced;
    Metrics.observe_n obs.h_copy_bytes gbytes k;
    if k = 1 then begin
      let dst = Comm_plan.receiver gs g 0 in
      let inter = node_of.(src) <> node_of.(dst) in
      if not (inter = !p2p_inter && gbytes = !p2p_bytes && frags = !p2p_frags) then begin
        let link = if inter then Cost.Inter else Cost.Intra in
        p2p := Cost.strided_copy_time cost link ~bytes:gbytes ~fragments:frags;
        p2p_inter := inter;
        p2p_bytes := gbytes;
        p2p_frags := frags
      end;
      recv.(dst) <- recv.(dst) +. !p2p;
      send.(src) <- send.(src) +. !p2p
    end
    else begin
      (* Each link kind in use is priced when a receiver first takes it. *)
      let pack = Cost.pack_time cost ~fragments:frags and src_node = node_of.(src) in
      priced.(0) <- false;
      priced.(1) <- false;
      for r = 0 to k - 1 do
        let dst = Comm_plan.receiver gs g r in
        let l = if node_of.(dst) <> src_node then 1 else 0 in
        if not priced.(l) then begin
          let link = if l = 1 then Cost.Inter else Cost.Intra in
          priced.(l) <- true;
          part.(l) <- Cost.broadcast_participant_send cost link ~bytes:gbytes ~receivers:k;
          bcast.(l) <- Cost.broadcast_time cost link ~bytes:gbytes ~receivers:k
        end;
        send.(dst) <- send.(dst) +. part.(l);
        recv.(dst) <- recv.(dst) +. bcast.(l) +. pack
      done;
      send.(src) <- send.(src) +. bcast.(if priced.(1) then 1 else 0) +. pack
    end
  done;
  Metrics.inc_int obs.m_copy_groups (Comm_plan.count gs);
  Metrics.inc_int obs.m_coalesced !coalesced;
  Metrics.inc_int obs.m_messages !messages;
  (!bytes, !messages)

(* The one pricing of a bulk-synchronous step, shared by [execute] and
   [redistribute]. The step's fetches are planned into wire messages
   (one per (tensor, src, dst)) and identical payloads bundled into
   broadcasts; their occupancies, and the retransmissions and delays of
   any message faults, are charged to the endpoints. The step costs the
   max over processors of overlapped compute and communication, priced
   in one [Cost.step_times] call, or the rack fabric's occupancy when
   that is larger. [kernel] prices leaf compute (see [resolve]). Returns
   the timeline row, with its per-processor slots and wire payloads only
   when [profiling], and leaves pricing's per-processor arrays cleared
   for the next step. *)
let price_step machine cost obs ~node_of ~kernel ~faults ~profiling ~step ~start a =
  let t_plan = now () in
  let gs = Comm_plan.plan a.msgs ~step in
  (* A processor's communication time in a step combines its send and
     receive occupancies per the cost model's duplex mode (full-duplex
     NICs overlap them; framebuffer DMA serializes them). *)
  let bytes, messages = price_groups cost obs ~node_of ~send:a.send ~recv:a.recv gs in
  Metrics.inc obs.m_plan_host (now () -. t_plan);
  (* The groups as records, only for what reads them: message faults
     and the profile's wire payloads. *)
  let msg_faults = match faults with Some f -> f.msg_faults | None -> false in
  let glist = if profiling || msg_faults then Comm_plan.copies a.msgs gs else [] in
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
                    Cost.retransmit_time cost (link_between node_of g.src dst) ~bytes:g.bytes
                      ~fragments:g.fragments
                  in
                  a.send.(g.src) <- a.send.(g.src) +. t;
                  a.recv.(dst) <- a.recv.(dst) +. t;
                  set_on a.sent g.src;
                  set_on a.sent dst
              | Some (Fault.Delay d) ->
                  Metrics.inc_int f.m_injected 1;
                  a.recv.(dst) <- a.recv.(dst) +. d;
                  set_on a.sent dst
              | None -> ())
            g.receivers)
        glist
  | _ -> ());
  let fabric =
    if a.cross.(step) > 0.0 then
      let racks = Ints.ceil_div (Machine.num_nodes machine) cost.Cost.rack_nodes in
      Cost.fabric_time cost ~cross_rack_bytes:a.cross.(step) ~racks
    else 0.0
  in
  let nprocs = Array.length a.send in
  let off = step * nprocs in
  let cost_step =
    Float.max fabric
      (Cost.step_times cost ~kernel ~flops:a.cflops ~bytes_touched:a.cbytes ~off ~send:a.send
         ~recv:a.recv ~compute:a.compute ~comm:a.comm)
  in
  (* The record's slots: every processor that computed or communicated. *)
  let slots = ref [] in
  if profiling then begin
    for g = 0 to Comm_plan.count gs - 1 do
      set_on a.sent (Comm_plan.src gs g);
      for r = 0 to Comm_plan.receivers gs g - 1 do
        set_on a.sent (Comm_plan.receiver gs g r)
      done
    done;
    for proc = nprocs - 1 downto 0 do
      if on a.computed (off + proc) || on a.sent proc then begin
        let compute = a.compute.(proc) and comm = a.comm.(proc) in
        slots :=
          { Cp.proc; compute; comm; busy = Cost.step_time cost ~compute ~comm;
            flops = a.cflops.(off + proc); bytes_touched = a.cbytes.(off + proc) }
          :: !slots
      end
    done
  end;
  Array.fill a.send 0 nprocs 0.0;
  Array.fill a.recv 0 nprocs 0.0;
  Bytes.fill a.sent 0 nprocs '\000';
  Metrics.observe obs.h_step_time cost_step;
  { Cp.index = step; start; cost = cost_step; slots = !slots; bytes; messages; fabric;
    copies = (if profiling then glist else []) }

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
   tensor data, in three phases over one resolved context: [resolve]
   checks the spec and fixes everything that depends on it alone; [walk]
   runs one task per launch point into per-step tables, reduction
   contributions and memory peaks, binding each leaf as it reaches it
   when a plan is being compiled; [price] turns the tables into simulated
   time and the run's priced record ({!Cp.timeline}), which a profile
   keeps and renders as events only when they are asked for. [Model]-mode
   [execute] is exactly this; {!plan} is this with recording on, and
   [Full]-mode [execute] is {!plan} followed by [run_plan]. *)

(* Everything the walk and pricing read, fixed by [resolve],
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
  run : Profile.run option;  (* the profile's run this simulation records *)
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
  layouts : int Distnot.layout array;  (* per tensor; owners are owner sets *)
  osets : int array array;  (* per owner set, its physical owners, first occurrences in order *)
  omember : Bytes.t array;  (* per owner set of several, a flag per processor *)
  vprocs : int;  (* processors of the grid the distributions name *)
  points : int array array;  (* launch points, in launch-point order *)
  ldims : int array;
  nsteps : int;
  mutable step : int;  (* the bulk-synchronous step of the current bindings *)
  slot_vars : string array;
  env : int array;
  tree : node;
  sites : (int * keyer) array;  (* footprint sites: tensor and key *)
  leaf_site : int array;  (* per tensor, its site at the leaf *)
  footprint_fns : (int array -> Rect.t) array;
  ikeys : keyer array;  (* per index variable: its interval's key and function *)
  ifns : (int array -> int * int) array;
  site_memo : int array array;  (* per site, by key, its entry; -1 until computed *)
  fs : fstore array;  (* per tensor *)
  ival_memo : int array array;  (* per index variable, by key; -1 until computed *)
  mutable footprints : int;
  steps : steps;
  red_contribs : (float * int list) Rect.Tbl.t;
  dyn_peak : float array;
  tally : float array;  (* the walk's flops, intra and inter bytes, then bytes per tensor *)
  tallied : Metrics.counter array;  (* the counters [tally] reaches, same order *)
  m_tasks : Metrics.counter;
  obs : step_obs;
  alloc0 : float * float;
}

(* How the walk binds a leaf: a substituted kernel with its operands'
   tensors in kernel order, or the scalar nest, staged once, with the
   tensor of each of its slots. *)
type leaf_binder = L_kernel of string * int array | L_nest of Expr_stage.plan * int array

(* Plan compilation: what binding a leaf needs, and the bound operations
   of the task being walked, newest first. *)
type recorder = {
  leaf : leaf_binder;
  src : int array;  (* per tensor: its index among the plan's sorted tensors *)
  strides : int array array;  (* per tensor: the caller's row-major strides *)
  ntensors : int;  (* the plan's tensors: output slot [k] is buffer [ntensors + k] *)
  mutable slots : Rect.t list;  (* the output slots so far, newest first *)
  mutable nslots : int;
  mutable bops : bop list;
}

(* The task being walked: its processor; the entry it holds an instance
   of, per tensor (-1 when none) and whether that instance counts against
   dynamic memory (instances of locally-owned tiles alias the owned
   data); the read-only instance of the output a self-referencing
   statement reads, kept apart from the write instance; [mem.(0)] live
   dynamic bytes, [mem.(1)] their peak. One record per walk, reset per
   task. *)
type task = {
  mutable proc : int;
  inst : int array;
  counted : bool array;
  mutable out_read : int;
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

(* Checks the spec — distributions, the substituted kernel, the fault
   plan — and fixes everything the walk needs that depends on the spec
   alone: machine maps, tile layouts, slots, footprint sites and the
   compiled task tree. Registers the run's instruments (fault instruments
   only for a non-empty fault plan). *)
let resolve ?trace ?profile ?faults spec =
  (* Register this execution as a run of the profile (its own pid, metrics
     registry and timeline slot). Without a profile the registry is private
     to this call; either way it is the single accumulator the final
     [Stats.t] view derives from. *)
  let run = Option.map (Profile.begin_run ~fallback:"execute") profile in
  let reg = match run with Some r -> r.Profile.metrics | None -> Metrics.create () in
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
  let tensors = Array.of_list tensor_list in
  let tensor_index tn = name_index tensors tn 0 in
  (* Per tensor, its distribution's tiles as closed-form queries, one
     layout per distinct distribution and shape. Virtual processor [v]
     folds onto physical [v mod nprocs]; a tile's owners are folded,
     first occurrences kept (a stamp per processor, so folding is linear
     in the virtual owners), and numbered: equal owner lists share one
     owner set, with a flag per processor when they are several. *)
  let stamp = Array.make nprocs (-1) and folds = ref 0 in
  let oset_ids = Hashtbl.create 16 and rev_osets = ref [] and nosets = ref 0 in
  let fold vs =
    let os =
      match vs with
      | [ v ] -> [| v mod nprocs |]
      | _ ->
          let id = !folds in
          incr folds;
          Array.of_list
            (List.rev
               (List.fold_left
                  (fun acc v ->
                    let p = v mod nprocs in
                    if stamp.(p) = id then acc
                    else begin
                      stamp.(p) <- id;
                      p :: acc
                    end)
                  [] vs))
    in
    match Hashtbl.find_opt oset_ids os with
    | Some id -> id
    | None ->
        let id = !nosets in
        Hashtbl.add oset_ids os id;
        rev_osets := os :: !rev_osets;
        incr nosets;
        id
  in
  let built = ref [] in
  let layout_of tn =
    let dist = List.assoc tn dists and shape = Taskir.shape_of prog tn in
    match List.find_opt (fun (d, s, _) -> d = dist && Ints.equal s shape) !built with
    | Some (_, _, l) -> l
    | None ->
        let l = Distnot.layout dist ~shape ~machine:vmachine ~owners:fold in
        built := (dist, shape, l) :: !built;
        l
  in
  let layouts = Array.map layout_of tensors in
  let osets = Array.of_list (List.rev !rev_osets) in
  let omember =
    Array.map
      (fun os ->
        if Array.length os = 1 then Bytes.empty
        else begin
          let b = Bytes.make nprocs '\000' in
          Array.iter (fun p -> Bytes.set b p '\001') os;
          b
        end)
      osets
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
  let seq_strides = Ints.row_major_strides seq_dims in
  let rec compile = function
    | Taskir.Launch { body; _ } -> compile body
    | Seq_loop { var; extent; body } ->
        let slot = Hashtbl.find slot_tbl var in
        bound.(slot) <- true;
        let stride = seq_strides.(slot - Array.length ldims) in
        N_seq { slot; extent; stride; body = compile body }
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
    { machine; cost; stmt; trace; run; reg; faults; named; priced_kernel;
      leaf_vars = (match leaf with Taskir.Scalar_loops vars -> vars | Named _ -> []);
      reads_out; reduction; ops = ops_per_point stmt; nprocs; node_of_lin;
      rack_of_lin = Array.map (fun n -> n / cost.Cost.rack_nodes) node_of_lin;
      tensors; out_t = tensor_index out_name; layouts; osets; omember;
      vprocs = Machine.num_procs vmachine;
      (* Filled in place: [Array.of_list] of more than 256 young values
         runs a minor collection. *)
      points =
        (let pts = Array.make (Ints.prod ldims) [||] in
         Array.iteri (fun i _ -> pts.(i) <- Ints.delinearize ~dims:ldims i) pts;
         pts);
      ldims; nsteps; step = 0; slot_vars;
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
      site_memo = Array.map (fun (_, k) -> Array.make (key_range k) (-1)) sites;
      fs = Array.mapi (fun t tn -> new_fstore t (Array.length (Taskir.shape_of prog tn))) tensors;
      ival_memo = Array.map (fun k -> Array.make (key_range k) (-1)) ikeys;
      footprints = 0; steps = new_steps ~names:tensors ~nsteps nprocs;
      red_contribs = Rect.Tbl.create 16;
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

(* The entry of [rect], a footprint of tensor [t]: found by its rect,
   or added. *)
let entry_of c t (rect : Rect.t) =
  let fs = c.fs.(t) in
  let w = 2 * fs.rank and e = fs.n in
  fs.co <- room fs.co ((e + 1) * w);
  Rect.to_ints fs.co (e * w) rect;
  let h = rect_hash fs.co (e * w) w land (Array.length fs.slots - 1) in
  let i = probe fs fs.slots fs.co (e * w) w h in
  if fs.slots.(i) > 0 then fs.slots.(i) - 1
  else begin
    fs.slots.(i) <- e + 1;
    fs.n <- e + 1;
    fs.ent <- room fs.ent ((e + 1) * ent_w);
    let b = e * ent_w and ent = fs.ent in
    ent.(b + e_vol) <- Rect.volume rect;
    ent.(b + e_hold) <- (match Distnot.holders c.layouts.(t) rect with Some s -> s | None -> -1);
    ent.(b + e_fplan) <- -1;
    ent.(b + e_wplan) <- -1;
    if 2 * fs.n > Array.length fs.slots then rehash fs;
    e
  end

(* The footprint a site needs under the current bindings. *)
let entry c site =
  let t, k = c.sites.(site) in
  let memo = c.site_memo.(site) and key = key_of k c.env in
  let e = memo.(key) in
  if e >= 0 then e
  else begin
    let rect = c.footprint_fns.(t) c.env in
    c.footprints <- c.footprints + 1;
    let e = entry_of c t rect in
    memo.(key) <- e;
    e
  end

let rect_of c t e =
  let fs = c.fs.(t) in
  Rect.of_ints fs.co (e * 2 * fs.rank) fs.rank

let[@inline] e_field c t e f = c.fs.(t).ent.((e * ent_w) + f)
let[@inline] e_bytes c t e = 8.0 *. float_of_int (e_field c t e e_vol)

(* Placement under faults: an effect landing on a processor that is dead
   at its step executes on its failover target instead ({!Mapper.fallback}
   — the next live linear processor, which also holds the checkpoint
   replica). *)
let remap_dead c f ~step p =
  if Injector.has_kills f.inj && Injector.dead f.inj ~step ~proc:p then
    Mapper.fallback ~nprocs:c.nprocs ~dead:(fun q -> Injector.dead f.inj ~step ~proc:q) p
  else p

let[@inline] remap c ~step p = match c.faults with None -> p | Some f -> remap_dead c f ~step p

(* Record one payload of tensor [t] moving src -> dst, after remapping; a
   transfer whose ends collapse onto one processor disappears. Traffic
   metrics and cross-rack accounting see the raw bytes (planning never
   changes totals); the payload joins its step's message table, which
   [price] plans into wire messages. Trace consumers see one event per
   fragment. *)
let charge_batch c ~step ~t ~src ~dst p =
  let src = remap c ~step src and dst = remap c ~step dst in
  let a = c.steps in
  let volume = Comm_plan.volume a.msgs p in
  if src <> dst && volume > 0 then begin
    let bytes = 8.0 *. float_of_int volume in
    set_on a.active step;
    Comm_plan.add a.msgs ~step ~t ~src ~dst p;
    let l = if link_between c.node_of_lin src dst = Cost.Intra then 1 else 2 in
    c.tally.(l) <- c.tally.(l) +. bytes;
    c.tally.(3 + t) <- c.tally.(3 + t) +. bytes;
    if c.rack_of_lin.(src) <> c.rack_of_lin.(dst) then a.cross.(step) <- a.cross.(step) +. bytes;
    match c.trace with
    | Some log ->
        let src = Machine.delinearize c.machine src in
        let dst = Machine.delinearize c.machine dst in
        List.iter
          (fun piece ->
            log :=
              { step; tensor = c.tensors.(t); piece; src; dst; bytes = bytes_of_rect piece }
              :: !log)
          (Comm_plan.pieces a.msgs p)
    | None -> ()
  end

let checkpoint c ~step ~proc t e =
  match c.faults with
  | Some { ckpt = Some ck; _ } when e_field c t e e_vol > 0 ->
      Checkpoint.record ck ~step ~proc (rect_of c t e)
  | _ -> ()

(* A reduction partial: register the contribution. *)
let add_red c ~step ~proc e =
  let rproc = remap c ~step proc in
  checkpoint c ~step ~proc:rproc c.out_t e;
  let rect = rect_of c c.out_t e in
  match Rect.Tbl.find_opt c.red_contribs rect with
  | Some (b, procs) ->
      (* Under kills, remapping can fold two contributors onto one
         survivor; count it once. Fault-free, keep every contribution. *)
      let kills = match c.faults with Some f -> Injector.has_kills f.inj | None -> false in
      if not (kills && List.mem rproc procs) then
        Rect.Tbl.replace c.red_contribs rect (b, rproc :: procs)
  | None -> Rect.Tbl.add c.red_contribs rect (bytes_of_rect rect, [ rproc ])

(* Whether [proc] holds entry [e] of tensor [t] in one of its tiles: the
   holding tile's one owner, or its owner set's flag. An empty footprint
   has no holders; it has no bytes and no pieces, so owning it would
   change nothing. *)
let owns c s proc =
  let os = c.osets.(s) in
  if Array.length os = 1 then os.(0) = proc else Bytes.unsafe_get c.omember.(s) proc <> '\000'

let holds c t e proc =
  let s = e_field c t e e_hold in
  s >= 0 && owns c s proc

let pieces_of c t e = Distnot.pieces c.layouts.(t) (rect_of c t e)

(* Append a plan of [pairs] (owner set or destination, payload id), in
   order, to tensor [t]'s plans; where it starts. *)
let add_plan c t pairs =
  let fs = c.fs.(t) in
  let off = fs.npl and n = List.length pairs in
  fs.pl <- room fs.pl (off + 1 + (2 * n));
  fs.pl.(off) <- n;
  List.iteri
    (fun i (x, p) ->
      fs.pl.(off + 1 + (2 * i)) <- x;
      fs.pl.(off + 2 + (2 * i)) <- p)
    pairs;
  fs.npl <- off + 1 + (2 * n);
  off

(* A fetch plan's pieces so far of owner set [s], or [no_group]. *)
let no_group : Rect.t list ref = ref []

let rec group_of (s : int) = function
  | [] -> no_group
  | (s', ps) :: tl -> if s = s' then ps else group_of s tl

(* The entry's fetch plan: its pieces grouped by owner set, each group
   one payload, pre-merged ([Comm_plan.payload]). For cyclic
   distributions this is where thousands of per-piece decisions collapse
   into a handful of per-owner batches. A footprint inside one tile is
   that tile's only piece, so its plan comes from its holders alone. *)
let plan_of c t e =
  if e_field c t e e_fplan >= 0 then e_field c t e e_fplan
  else begin
    let msgs = c.steps.msgs in
    let pairs =
      let s = e_field c t e e_hold in
      if s >= 0 then [ (s, Comm_plan.payload msgs [ rect_of c t e ]) ]
      else begin
        let groups = ref [] in
        List.iter
          (fun (piece, s) ->
            let ps = group_of s !groups in
            if ps == no_group then groups := (s, ref [ piece ]) :: !groups else ps := piece :: !ps)
          (pieces_of c t e);
        List.rev_map (fun (s, ps) -> (s, Comm_plan.payload msgs (List.rev !ps))) !groups
      end
    in
    let off = add_plan c t pairs in
    c.fs.(t).ent.((e * ent_w) + e_fplan) <- off;
    off
  end

(* Fetch cost: groups the processor itself owns are free, the rest
   become one fragment batch each (same-node owners preferred). *)
let charge_fetch c tk t e =
  let off = plan_of c t e and proc = tk.proc and step = c.step in
  let pl = c.fs.(t).pl in
  for i = 0 to pl.(off) - 1 do
    let s = pl.(off + 1 + (2 * i)) and p = pl.(off + 2 + (2 * i)) in
    let os = c.osets.(s) in
    if Array.length os = 1 then begin
      if os.(0) <> proc then charge_batch c ~step ~t ~src:os.(0) ~dst:proc p
    end
    else if not (owns c s proc) then
      charge_batch c ~step ~t ~src:(source c.node_of_lin c.node_of_lin.(proc) os 0) ~dst:proc p
  done

(* The output entry's write-back: per piece, in discovery order, the
   first owner of its tile and a payload of the piece. *)
let write_back c e =
  let t = c.out_t in
  if e_field c t e e_wplan >= 0 then e_field c t e e_wplan
  else begin
    let msgs = c.steps.msgs in
    let pairs =
      List.map
        (fun (piece, s) -> (c.osets.(s).(0), Comm_plan.payload msgs [ piece ]))
        (pieces_of c t e)
    in
    let off = add_plan c t pairs in
    c.fs.(t).ent.((e * ent_w) + e_wplan) <- off;
    off
  end

(* The output instance is done: a reduction partial, or (owner-computes)
   its tile shipped home when a remote processor owns it. *)
let flush_output c tk ~step e =
  if c.reduction then add_red c ~step ~proc:tk.proc e
  else begin
    if not (holds c c.out_t e tk.proc) then begin
      let off = write_back c e in
      let pl = c.fs.(c.out_t).pl in
      for i = 0 to pl.(off) - 1 do
        let dst = pl.(off + 1 + (2 * i)) in
        if dst <> tk.proc then
          charge_batch c ~step ~t:c.out_t ~src:tk.proc ~dst pl.(off + 2 + (2 * i))
      done
    end;
    checkpoint c ~step ~proc:(remap c ~step tk.proc) c.out_t e
  end

let[@inline] grow tk bytes =
  tk.mem.(0) <- tk.mem.(0) +. bytes;
  if tk.mem.(0) > tk.mem.(1) then tk.mem.(1) <- tk.mem.(0)

let[@inline] shrink tk bytes = tk.mem.(0) <- tk.mem.(0) -. bytes

(* Materialize the footprint of [site] as the task's instance of tensor
   [t], unless the task already holds exactly that instance. *)
let ensure c tk t site =
  let e = entry c site in
  let cur = tk.inst.(t) in
  let fresh =
    if cur < 0 then true
    else if cur = e then false
    else begin
      if t = c.out_t then flush_output c tk ~step:c.step cur;
      if tk.counted.(t) then shrink tk (e_bytes c t cur);
      tk.inst.(t) <- -1;
      true
    end
  in
  if fresh then begin
    (* An instance of a locally-owned subrect aliases the owned tile;
       reduction partials for the output are fresh allocations. *)
    let counted = (t = c.out_t && c.reduction) || not (holds c t e tk.proc) in
    if counted then grow tk (e_bytes c t e);
    if t = c.out_t then begin
      (* Reduction partials start at zero; stationary/owner-computes
         outputs are seeded with current values (which only costs
         communication when the statement accumulates into — or reads —
         a tensor this processor does not own). *)
      if ((not c.reduction) && c.stmt.accum) || c.reads_out then charge_fetch c tk t e;
      match tk.record with
      | Some r ->
          r.bops <- B_out r.nslots :: r.bops;
          r.slots <- rect_of c t e :: r.slots;
          r.nslots <- r.nslots + 1
      | None -> ()
    end
    else charge_fetch c tk t e;
    tk.inst.(t) <- e;
    tk.counted.(t) <- counted;
    if t = c.out_t && c.reads_out then begin
      if tk.out_read >= 0 && tk.out_read_counted then shrink tk (e_bytes c t tk.out_read);
      let counted_r = not (holds c t e tk.proc) in
      if counted_r then grow tk (e_bytes c t e);
      tk.out_read <- e;
      tk.out_read_counted <- counted_r
    end
  end

(* Bind the leaf the walk has reached against the instances the task
   holds and the bindings in [env]. Inputs, and the output a
   self-referencing statement reads, are read in place from the caller's
   tensors; the output is written into the block of its instance, the
   newest slot. *)
let bind_leaf c tk r =
  let out_src = r.ntensors + r.nslots - 1 in
  let held t e =
    if e < 0 then invalid_arg ("leaf recorded without an instance of " ^ c.tensors.(t));
    rect_of c t e
  in
  let offset st lo =
    let off = ref 0 in
    Array.iteri (fun d x -> off := !off + (x * st.(d))) lo;
    !off
  in
  match r.leaf with
  | L_kernel (kernel, order) ->
      (* A substituted kernel runs over the leaf's footprint of each
         operand: an input's starts at its [lo] in the caller's tensor,
         the output's at [lo] minus the instance's [lo] in the block. *)
      let operand t =
        let inst = held t tk.inst.(t) in
        let need = rect_of c t (entry c c.leaf_site.(t)) in
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
      let ops = Array.map operand order in
      let dims = Kreg.dims ~kernel (Array.to_list (Array.map snd ops)) in
      B_leaf (Expr_stage.Kernel { kernel; dims; operands = Array.map fst ops })
  | L_nest (sp, slot_t) ->
      let in_caller t rect =
        { Expr_stage.src = r.src.(t); rect; base = offset r.strides.(t) rect.Rect.lo;
          strides = r.strides.(t) }
      in
      let geom i t =
        if t <> c.out_t then in_caller t (held t tk.inst.(t))
        else if i < Array.length slot_t - 1 then in_caller t (held t tk.out_read)
        else
          let rect = held t tk.inst.(t) in
          { src = out_src; rect; base = 0; strides = Ints.row_major_strides (Rect.extents rect) }
      in
      let rec slot_env v s =
        if s = Array.length c.slot_vars then None
        else if String.equal c.slot_vars.(s) v then Some c.env.(s)
        else slot_env v (s + 1)
      in
      B_leaf (Expr_stage.bind sp ~env:(fun v -> slot_env v 0) ~geoms:(Array.mapi geom slot_t))

let exec_leaf c tk =
  let step = c.step in
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
    if tk.inst.(t) >= 0 then bytes := !bytes +. e_bytes c t tk.inst.(t)
  done;
  if tk.out_read >= 0 then bytes := !bytes +. e_bytes c c.out_t tk.out_read;
  let proc = remap c ~step tk.proc and flops = float_of_int c.ops *. !points in
  let a = c.steps and i = (step * c.nprocs) + proc in
  a.cflops.(i) <- a.cflops.(i) +. flops;
  a.cbytes.(i) <- a.cbytes.(i) +. !bytes;
  set_on a.computed i;
  set_on a.active step;
  c.tally.(0) <- c.tally.(0) +. flops;
  match tk.record with Some r -> r.bops <- bind_leaf c tk r :: r.bops | None -> ()

let rec walk_node c tk = function
  | N_seq { slot; extent; stride; body } ->
      let base = c.step in
      for x = 0 to extent - 1 do
        c.env.(slot) <- x;
        c.step <- base + (x * stride);
        walk_node c tk body
      done;
      c.env.(slot) <- -1;
      c.step <- base
  | N_ensure { t; site; body } ->
      ensure c tk t site;
      walk_node c tk body
  | N_leaf -> exec_leaf c tk

let run_task c tk point =
  let proc =
    Machine.linearize c.machine (Mapper.proc_of_point c.machine ~launch_dims:c.ldims point)
  in
  tk.proc <- proc;
  Array.fill tk.inst 0 (Array.length tk.inst) (-1);
  Array.fill tk.counted 0 (Array.length tk.counted) false;
  tk.out_read <- -1;
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
  if tk.inst.(c.out_t) >= 0 then flush_output c tk ~step:(c.nsteps - 1) tk.inst.(c.out_t);
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
    { proc = 0; inst = Array.make n (-1); counted = Array.make n false; out_read = -1;
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
  Array.iteri free_fstore c.fs;
  Array.fill c.ival_memo 0 (Array.length c.ival_memo) [||];
  Metrics.set (Metrics.gauge c.reg "exec.compute_wall_s") (now () -. t0);
  bops

(* {3 Price} *)

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
          { Cp.victim = proc; kill_step = k; from_step = b; detect = Cost.detect_time c.cost;
            restore; replay = !replay })
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
   spec produce identical records and bit-identical times. Everything is
   read off the flat per-step accumulators. *)
let price c =
  let t0 = now () in
  let cost = c.cost and nprocs = c.nprocs in
  let tasks_per_proc = Ints.ceil_div (Array.length c.points) nprocs in
  let overhead = float_of_int tasks_per_proc *. cost.Cost.task_overhead in
  let start = ref overhead in
  (* Per-processor slots and wire payloads only feed the profile; without
     one the step cost (the max over processors, which any order computes
     exactly) is all that is kept. *)
  let profiling = Option.is_some c.run in
  let total_messages = ref 0 in
  let rev_rows = ref [] in
  for step = 0 to c.nsteps - 1 do
    if on c.steps.active step then begin
      let row =
        price_step c.machine cost c.obs ~node_of:c.node_of_lin
          ~kernel:c.priced_kernel ~faults:c.faults ~profiling ~step ~start:!start c.steps
      in
      total_messages := !total_messages + row.Cp.messages;
      start := !start +. row.Cp.cost;
      rev_rows := row :: !rev_rows
    end
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
      (fun acc (e : Cp.episode) -> acc +. e.detect +. e.restore +. e.replay)
      0.0 episodes
  in
  let reg = c.reg in
  if Option.is_some c.faults then Metrics.set (Metrics.gauge reg "exec.recovery_time") recovery;
  let total = overhead +. time +. red_time +. recovery in
  Metrics.set (Metrics.gauge reg "exec.time") total;
  Metrics.set (Metrics.gauge reg "exec.steps") (float_of_int c.nsteps);
  Metrics.set (Metrics.gauge reg "exec.overhead_time") overhead;
  Metrics.set (Metrics.gauge reg "exec.reduction_time") red_time;
  set_coalesce_ratio reg ~fragments:(Comm_plan.fragments c.steps.msgs) ~messages:!total_messages;
  (* Memory accounting: the owned tiles of every tensor, plus the walk's
     dynamic peak. *)
  let static_mem = Array.make nprocs 0.0 in
  Array.iter
    (fun l ->
      for v = 0 to c.vprocs - 1 do
        let p = v mod nprocs in
        static_mem.(p) <- static_mem.(p) +. (8.0 *. float_of_int (Distnot.owned_volume l v))
      done)
    c.layouts;
  let mem_limit = Machine.mem_per_proc_bytes c.machine in
  let g_peak = Metrics.gauge reg "exec.peak_mem" in
  let g_oom = Metrics.gauge reg "exec.oom" in
  for p = 0 to nprocs - 1 do
    let m = static_mem.(p) +. c.dyn_peak.(p) in
    Metrics.set_max g_peak m;
    if m > mem_limit then Metrics.set g_oom 1.0
  done;
  Metrics.set (Metrics.gauge reg "exec.assembly_wall_s") (now () -. t0);
  { Cp.nprocs; grid = Machine.dims c.machine; node_of = c.node_of_lin; tasks_per_proc;
    overhead; reduction = red_time; recovery; episodes; steps = rows; total; exchange = false }

(* Price a walked simulation, hand its record to the profile; its
   modeled stats. *)
let finish c =
  let tl = price c in
  Comm_plan.release c.steps.msgs;
  Option.iter (fun (r : Profile.run) -> r.timeline <- Some tl) c.run;
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
   zero-fills output slots, calls the bound leaves and merges. The plan
   is immutable: a run takes its slots' blocks from the plan's
   size-classed pool ({!Buf_pool}, which locks itself), and every bound
   leaf keeps its loop state per call, so runs of one plan may overlap. *)

type eplan = {
  ep_spec : spec;
  ep_stats : Stats.t;  (* modeled per-run stats, fixed at plan time *)
  ep_ops : bop array array;  (* per launch point, launch-point order *)
  ep_slots : Rect.t array;  (* per output slot: its instance *)
  ep_tensors : string array;  (* sorted; a [src] below their count indexes it *)
  ep_shapes : int array array;
  ep_reads_out : bool;
  ep_accum : bool;
  ep_out_name : string;
  ep_pool : Buf_pool.t;
  ep_runs : int Atomic.t;
}

let plan ?faults ?trace ?profile spec =
  let prog = spec.program in
  let stmt = prog.stmt in
  let* c = resolve ?faults ?trace ?profile spec in
  let tensors = Array.of_list (List.sort_uniq compare (Expr.tensors stmt)) in
  let index tn = name_index c.tensors tn 0 in
  (* Scalar leaves: the loop nest compiled once into flat loops over
     precomputed strides ({!Expr_stage}). *)
  let* leaf =
    match c.named with
    | Some (kernel, o) -> Ok (L_kernel (kernel, Array.of_list (List.map index o)))
    | None ->
        let* sp = Expr_stage.plan prog.prov ~stmt ~leaf_vars:c.leaf_vars in
        Ok (L_nest (sp, Array.map (fun (a : Expr.access) -> index a.tensor) (Expr_stage.slots sp)))
  in
  let src = Array.map (fun tn -> name_index tensors tn 0) c.tensors in
  let strides = Array.map (fun tn -> Ints.row_major_strides (Taskir.shape_of prog tn)) c.tensors in
  let r =
    { leaf; src; strides; ntensors = Array.length tensors; slots = []; nslots = 0; bops = [] }
  in
  let ep_ops = walk c (Some r) in
  Ok
    { ep_spec = spec; ep_stats = finish c; ep_ops; ep_slots = Array.of_list (List.rev r.slots);
      ep_tensors = tensors; ep_shapes = Array.map (Taskir.shape_of prog) tensors;
      ep_reads_out = c.reads_out; ep_accum = stmt.accum; ep_out_name = stmt.lhs.tensor;
      ep_pool = Buf_pool.create (); ep_runs = Atomic.make 0 }

type leaf_tiers = { tiled : int; staged : int }

let plan_leaf_tiers ep =
  Array.fold_left
    (Array.fold_left (fun t -> function
       | B_leaf (Expr_stage.Kernel _) -> { t with tiled = t.tiled + 1 }
       | B_leaf (Expr_stage.Nest _ | Expr_stage.Empty) -> { t with staged = t.staged + 1 }
       | B_out _ -> t))
    { tiled = 0; staged = 0 } ep.ep_ops

let plan_stats ep = { ep.ep_stats with Stats.time = ep.ep_stats.Stats.time }
let plan_runs ep = Atomic.get ep.ep_runs
let plan_pool_stats ep = Buf_pool.stats ep.ep_pool

(* The buffer a tensor the run does not read stands in for. *)
let no_data = Dense.create [| 0 |]

let run_plan ?(alloc = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout) ?domains ep
    ~data =
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
  (* The run's buffer table: the caller's tensors, then a block per output
     slot, all taken from the pool before any point runs and handed back
     after the merge. Every block stays live until the merge anyway, and
     the lanes never touch the pool. *)
  let pool = ep.ep_pool and slots = ep.ep_slots and nt = Array.length caller in
  let bufs =
    Array.init (nt + Array.length slots) (fun i ->
        if i < nt then Dense.unsafe_data caller.(i)
        else Buf_pool.acquire pool (Rect.volume slots.(i - nt)))
  in
  let view (o : Expr_stage.operand) = { Kreg.buf = bufs.(o.src); off = o.off; st = o.st } in
  let run_op = function
    | B_out k ->
        let b = bufs.(nt + k) in
        for j = 0 to Rect.volume slots.(k) - 1 do
          Bigarray.Array1.unsafe_set b j 0.0
        done
    | B_leaf (Expr_stage.Kernel { kernel; dims; operands }) ->
        Kreg.run_views ~kernel ~dims (Array.map view operands)
    | B_leaf (Expr_stage.Nest nest) -> Expr_stage.run_nest nest bufs
    | B_leaf Expr_stage.Empty -> ()
  in
  Pool.parallel_for (Pool.get ?size:domains ()) ~n:(Array.length ep.ep_ops) (fun ~lane:_ i ->
      Array.iter run_op ep.ep_ops.(i));
  (* Serial merge in slot order (launch-point order, then the order a
     point opened its instances): one accumulation order whatever the
     domain count, so outputs are byte-identical across pool sizes. *)
  Array.iteri
    (fun k rect ->
      let b = bufs.(nt + k) in
      if not (Rect.is_empty rect) then
        Dense.accumulate_into ~src:(Dense.of_buf b (Rect.extents rect)) ~dst:out_global rect;
      Buf_pool.release pool b)
    slots;
  Atomic.incr ep.ep_runs;
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
  let prun = Option.map (Profile.begin_run ~fallback:"redistribute") profile in
  let reg = match prun with Some r -> r.Profile.metrics | None -> Metrics.create () in
  let m_bytes_intra = Metrics.counter reg "exec.bytes_intra" in
  let m_bytes_inter = Metrics.counter reg "exec.bytes_inter" in
  let nprocs = Machine.num_procs machine in
  let node_of_lin = nodes_of_procs machine in
  let rack_of_lin = Array.map (fun n -> n / cost.Cost.rack_nodes) node_of_lin in
  let link_of src dst = link_between node_of_lin src dst in
  let layout dist = Distnot.layout dist ~shape ~machine ~owners:Array.of_list in
  let src_layout = layout src in
  (* A redistribution is one exchange step with no compute: every piece a
     destination owner lacks comes from an owner of the overlapping source
     tile, a same-node one when there is one. *)
  let a = new_steps ~names:[| "" |] ~nsteps:1 nprocs in
  List.iter
    (fun (dr, downers) ->
      let pieces = Distnot.pieces src_layout dr in
      List.iter
        (fun d ->
          List.iter
            (fun (piece, sowners) ->
              if not (Array.mem d sowners) then begin
                let s = source node_of_lin node_of_lin.(d) sowners 0 in
                let bytes = bytes_of_rect piece in
                Metrics.inc (if link_of s d = Cost.Intra then m_bytes_intra else m_bytes_inter) bytes;
                if rack_of_lin.(s) <> rack_of_lin.(d) then a.cross.(0) <- a.cross.(0) +. bytes;
                set_on a.active 0;
                Comm_plan.add a.msgs ~step:0 ~t:0 ~src:s ~dst:d (Comm_plan.payload a.msgs [ piece ])
              end)
            pieces)
        (Array.to_list downers))
    (Distnot.pieces (layout dst) (Rect.full shape));
  let row =
    price_step machine cost (step_obs reg) ~node_of:node_of_lin ~kernel:None ~faults:None
      ~profiling:(Option.is_some prun) ~step:0 ~start:0.0 a
  in
  Metrics.set (Metrics.gauge reg "exec.time") row.Cp.cost;
  Metrics.set (Metrics.gauge reg "exec.steps") 1.0;
  set_coalesce_ratio reg ~fragments:(Comm_plan.fragments a.msgs) ~messages:row.Cp.messages;
  Comm_plan.release a.msgs;
  Option.iter
    (fun (run : Profile.run) ->
      run.timeline <-
        Some
          { Cp.nprocs; grid = Machine.dims machine; node_of = node_of_lin; tasks_per_proc = 0;
            overhead = 0.0; reduction = 0.0; recovery = 0.0; episodes = []; steps = [ row ];
            total = row.Cp.cost; exchange = true })
    prun;
  Stats.of_registry reg
