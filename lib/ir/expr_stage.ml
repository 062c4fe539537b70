module Rect = Distal_tensor.Rect
module Dense = Distal_tensor.Dense
module Kreg = Distal_tensor.Kernel_registry
module A1 = Bigarray.Array1

(* Staged leaf evaluation.

   Every scalar leaf runs as flat loops. Evaluating a leaf point by
   point would walk every point of the leaf box, re-resolve each index
   variable through [Provenance.raw_point_fn], re-check
   [Provenance.guards_fn], and evaluate the statement tree with a
   hashtable-backed environment. All of that is loop structure, not
   data: for a fixed statement and leaf-variable nest, every access
   coordinate is an affine function of the leaf variables (integer base
   plus nonnegative per-variable coefficients), and every guard is
   either constant across the leaf or the same kind of affine form,
   whose passing set along the innermost contributing variable is a
   prefix [0, hi).

   Two derivations are affine only piecewise, and the nest follows
   them. A fused leaf variable [f = first * ext second + second] visits
   the points of the nest (first, second) in the same order, so the
   nest has a level for each part. A rotated leaf variable, shifted by
   enclosing variables, gives its target [(x + c) mod E]: [x + c] below
   [E - c] and [x + c - E] from there, two affine segments of one level
   with a constant jump between them. Each coefficient vector has a
   column per level and a wrap column per level, the jump's share.

   [plan] runs that analysis once per (provenance, statement, leaf nest):
   it classifies every access index and every consumed (guarded) variable
   as constant / affine, compiles the statement into a closure over the
   instances' bigarray buffers and precomputed slot offsets, and turns
   affine guards into per-level upper clamps. Any other shape is an
   error that names the variable. [bind] then specializes a plan to one
   leaf — concrete outer environment and instance geometry, both known
   when the executable plan is compiled — producing flat loops over
   per-slot offsets and strides; [run_nest] runs them over the buffers of
   one run. Executed points, order and float operations match
   [Expr.eval] over the leaf box exactly.

   On top of the nest, [plan] also asks [Kernel_match] whether the
   statement is one of the registry's leaf kernels with the nest mapping
   one-to-one onto the kernel's iteration space ([kdisp_of] below). When
   it is and the bound leaf is guard-free, [bind] dispatches the whole
   leaf to [Kernel_registry] instead of running the nest — the
   cache-blocked tiled kernels preserve the nest's per-output-element
   operation order, so the dispatch is bit-identical (see DESIGN.md).

   Plans and bound nests are immutable and safe to share between
   domains: each [run_nest] call keeps its loop state (current offsets
   and guard values) in an array of its own. *)

(* Per-column coefficients, all >= 0 on the [nv] level columns and <= 0
   on the [nv] wrap columns that follow them. *)
type cls = C | A of int array

type aguard = { g_coeffs : int array; g_ext : int; g_dmax : int }

type slot = { s_access : Expr.access; s_coeffs : int array array (* dim -> coeffs *) }

(* Registry dispatch decided at plan time: the statement matched a
   kernel pattern and every canonical kernel letter is exactly one nest
   variable (unit coefficient), bijectively. *)
type kdisp = {
  kd_name : string;
  kd_lv : int array;  (* canonical letter index -> leaf var index *)
  kd_slot_lv : int array array;  (* slot -> operand dim -> leaf var index *)
}

type plan = {
  points : (Ident.t, (Ident.t -> int option) -> int option) Hashtbl.t;
      (* [Provenance.raw_point_fn] of each guarded or accessed variable,
         compiled once *)
  leaf_vars : Ident.t list;  (* the nest's loops, all 0 at the leaf's first point *)
  extents : int array;  (* per level *)
  wraps : Ident.t option array;  (* per level: the target a rotation shifts *)
  slots : slot array;  (* rhs accesses left-to-right, then lhs last *)
  guards : (Ident.t * aguard) list;  (* [g_dmax < 0]: constant across the leaf *)
  kdisp : kdisp option;
  rhs : Dense.buf array -> int array -> float;
}

let slots p = Array.map (fun s -> s.s_access) p.slots

exception Unstageable of string

let unstageable fmt = Printf.ksprintf (fun s -> raise (Unstageable s)) fmt

(* The nest's levels for one leaf variable: the variable, or the two
   parts it was fused from, which enumerate the same points in the same
   order. *)
let levels prov v =
  let part pos =
    List.find_opt
      (fun u -> Provenance.consumption prov u = Some (Provenance.Fused_into { fused = v; pos }))
      (Provenance.consumed prov)
  in
  match (part `First, part `Second) with Some a, Some b -> [ a; b ] | _ -> [ v ]

(* Classify a variable's raw point value as a function of the [nv]
   levels. A rotation whose result is a level, shifted by leaf-constant
   variables, records its target in [wraps]. Raises [Unstageable] for
   any other leaf-dependent fuse or rotation. *)
let classify prov ~leaf_vars ~leaf_index ~wraps ~nv =
  let zeros () = Array.make (2 * nv) 0 in
  let unit l =
    let a = zeros () in
    a.(l) <- 1;
    a
  in
  let arr = function C -> zeros () | A a -> a in
  let rec go v =
    match Hashtbl.find_opt leaf_index v with
    | Some l -> A (unit l)
    | None -> (
        if Provenance.is_live prov v then
          if List.mem v leaf_vars then unstageable "the fused leaf loop %s is read whole" v else C
        else
          match Provenance.consumption prov v with
          | None -> C  (* unknown or unconsumed: resolved at bind *)
          | Some (Provenance.Divided_into { outer; inner; inner_size }) -> (
              match (go outer, go inner) with
              | C, C -> C
              | co, ci ->
                  let ao = arr co and ai = arr ci in
                  A (Array.init (2 * nv) (fun l -> (ao.(l) * inner_size) + ai.(l))))
          | Some (Provenance.Fused_into { fused; _ }) -> (
              match go fused with
              | C -> C
              | A _ ->
                  unstageable "%s is a part of %s, which the leaf loops split or fuse again" v
                    fused)
          | Some (Provenance.Rotated_into { result; by }) -> (
              if List.exists (fun w -> go w <> C) by then
                unstageable "the rotation of %s is shifted by a leaf loop" v;
              match (Hashtbl.find_opt leaf_index result, go result) with
              | Some l, _ ->
                  wraps.(l) <- Some v;
                  let a = unit l in
                  a.(nv + l) <- -Provenance.extent prov v;
                  A a
              | None, C -> C
              | None, A _ ->
                  unstageable "the rotation of %s yields %s, which the leaf loops split" v result))
  in
  go

(* Compile the statement tree into a closure over (per-slot buffers,
   per-slot current offsets). Traversal order matches [Expr.accesses], so
   slot [i] is the i-th access left-to-right; float operations mirror
   [Expr.eval]'s recursion exactly. *)
let compile_rhs e =
  let next =
    let n = ref (-1) in
    fun () ->
      incr n;
      !n
  in
  let rec comp e =
    match e with
    | Expr.Access _ ->
        let i = next () in
        fun (data : Dense.buf array) (offs : int array) ->
          A1.unsafe_get data.(i) offs.(i)
    | Expr.Const c -> fun _ _ -> c
    | Expr.Add (a, b) ->
        let fa = comp a and fb = comp b in
        fun data offs -> fa data offs +. fb data offs
    | Expr.Sub (a, b) ->
        let fa = comp a and fb = comp b in
        fun data offs -> fa data offs -. fb data offs
    | Expr.Mul (a, b) ->
        let fa = comp a and fb = comp b in
        fun data offs -> fa data offs *. fb data offs
  in
  comp e

(* Can this staged leaf be handed to the kernel registry? Required:

   - the statement matches a registry pattern as a left-associated
     product, so the kernel's multiply chain is the evaluator's;
   - every canonical letter's statement variable is affine in exactly
     one nest variable with coefficient 1 (a base offset is fine — it
     folds into the slot offsets at bind), bijectively onto the nest, so
     the kernel's iteration space is the leaf box;
   - the reduction letters appear in the nest in canonical order, so the
     per-output-element accumulation visits reduction points in the
     order the kernel replays.

   Output letters may permute freely (different output elements' chains
   are independent), which is what lets one registry kernel serve many
   schedules of the same statement. *)
let kdisp_of (stmt : Expr.stmt) ~cls ~nv =
  match Kernel_match.infer_binding stmt with
  | None -> None
  | Some b ->
      if not b.Kernel_match.left_assoc then None
      else
        let e =
          List.find
            (fun (e : Kreg.entry) -> String.equal e.name b.kernel)
            Kreg.entries
        in
        let canon = Kreg.canonical_letters e in
        let nl = String.length canon in
        if nl <> nv then None
        else
          let lv_of v =
            match cls v with
            | A coeffs ->
                let l = ref (-1) and ok = ref true in
                Array.iteri
                  (fun i c ->
                    if c <> 0 then
                      if c = 1 && !l < 0 then l := i else ok := false)
                  coeffs;
                if !ok && !l >= 0 then Some !l else None
            | C -> None
          in
          let letter_lv = Array.make nl (-1) in
          let ok = ref true in
          String.iteri
            (fun ci ch ->
              match List.assoc_opt ch b.subst with
              | None -> ok := false
              | Some v -> (
                  match lv_of v with
                  | Some l -> letter_lv.(ci) <- l
                  | None -> ok := false))
            canon;
          if !ok then begin
            let seen = Array.make nv false in
            Array.iter
              (fun l ->
                if l < 0 || seen.(l) then ok := false else seen.(l) <- true)
              letter_lv
          end;
          if !ok then begin
            let last = ref (-1) in
            String.iteri
              (fun ci ch ->
                if not (String.contains e.lhs ch) then begin
                  if letter_lv.(ci) <= !last then ok := false;
                  last := letter_lv.(ci)
                end)
              canon
          end;
          if not !ok then None
          else
            let lv_of_letter ch = letter_lv.(String.index canon ch) in
            let slot_lv s =
              Array.init (String.length s) (fun d -> lv_of_letter s.[d])
            in
            let kd_slot_lv =
              Array.of_list (List.map slot_lv (e.factors @ [ e.lhs ]))
            in
            Some { kd_name = b.kernel; kd_lv = letter_lv; kd_slot_lv }

let plan prov ~(stmt : Expr.stmt) ~leaf_vars =
  let lv = Array.of_list (List.concat_map (levels prov) leaf_vars) in
  let nv = Array.length lv in
  let leaf_index = Hashtbl.create (max 1 nv) in
  Array.iteri (fun i v -> Hashtbl.replace leaf_index v i) lv;
  let wraps = Array.make nv None in
  let cls = classify prov ~leaf_vars ~leaf_index ~wraps ~nv in
  try
    let coeffs v = match cls v with C -> Array.make (2 * nv) 0 | A c -> c in
    let slot_of (a : Expr.access) =
      { s_access = a; s_coeffs = Array.of_list (List.map coeffs a.indices) }
    in
    let slots =
      Array.of_list (List.map slot_of (Expr.accesses stmt.rhs @ [ stmt.lhs ]))
    in
    (* Guard set: exactly the consumed variables ([Provenance.guards_fn]
       auto-passes live ones). Sorted for a deterministic plan layout. *)
    let guards =
      List.map
        (fun v ->
          let g_coeffs = coeffs v and g_dmax = ref (-1) in
          for l = 0 to nv - 1 do
            if g_coeffs.(l) > 0 then g_dmax := l
          done;
          (v, { g_coeffs; g_ext = Provenance.extent prov v; g_dmax = !g_dmax }))
        (List.sort compare (Provenance.consumed prov))
    in
    let points = Hashtbl.create 16 in
    List.iter
      (fun v -> Hashtbl.replace points v (Provenance.raw_point_fn prov v))
      (Provenance.consumed prov
      @ List.concat_map (fun s -> s.s_access.indices) (Array.to_list slots));
    Ok
      {
        points;
        leaf_vars;
        extents = Array.map (Provenance.extent prov) lv;
        wraps;
        slots;
        guards;
        kdisp = kdisp_of stmt ~cls ~nv;
        rhs = compile_rhs stmt.rhs;
      }
  with Unstageable why ->
    Error
      (Printf.sprintf "cannot stage the leaf loops (%s): %s" (String.concat ", " leaf_vars) why)

type geom = { src : int; rect : Rect.t; base : int; strides : int array }
type operand = { src : int; off : int; st : int array }

(* An affine guard bound to one leaf: a run keeps its value at the
   nest's current point at [at] in its state (after the slot offsets). *)
type bound_guard = { coeffs : int array; ext : int; at : int }

type nest = {
  srcs : int array;  (* per slot *)
  rhs : Dense.buf array -> int array -> float;
  extents : int array;  (* per level *)
  cuts : int array;  (* per level: where its second segment starts, or its extent *)
  start : int array;  (* a run's state at the leaf's first point: slot offsets, then guard values *)
  str : int array array;  (* slot -> column -> linear stride *)
  clamps : bound_guard array array;  (* per level *)
  bumps : bound_guard array array;  (* per level *)
}

type bound =
  | Kernel of { kernel : string; dims : int array; operands : operand array }
  | Nest of nest
  | Empty

(* The walk binds every live variable a leaf reads: the launch and
   sequential variables through [env], the leaf's own as 0 at its first
   point. So every point below resolves. Raw points are never negative
   (divide, fuse and rotate reconstruct from nonnegative values), and an
   instance covers the leaf's footprint, whose lower corner is at most
   the first point's coordinates, so no offset is negative either. *)
let bind (p : plan) ~env ~(geoms : geom array) =
  let nv = Array.length p.extents in
  let naccs = Array.length p.slots in
  if Array.length geoms <> naccs then invalid_arg "Expr_stage.bind: bad geoms";
  let env0 v = if List.mem v p.leaf_vars then Some 0 else env v in
  let point0 v =
    match Hashtbl.find p.points v env0 with
    | Some x when x >= 0 -> x
    | Some x -> invalid_arg (Printf.sprintf "Expr_stage.bind: %s starts at %d" v x)
    | None -> invalid_arg ("Expr_stage.bind: unbound variable under " ^ v)
  in
  (* Guards: value over the leaf is base + sum(coeff * x). A failing
     leaf-constant one excludes every point, so the leaf binds to
     [Empty]. *)
  let guards =
    List.mapi
      (fun k (v, g) -> (g, point0 v, { coeffs = g.g_coeffs; ext = g.g_ext; at = naccs + k }))
      p.guards
  in
  if List.exists (fun (g, start, _) -> g.g_dmax < 0 && start >= g.g_ext) guards then Empty
  else
    let select f =
      Array.init nv (fun l ->
          Array.of_list (List.filter_map (fun (g, _, b) -> if f g l then Some b else None) guards))
    in
    (* A rotated level wraps where its target, [c] at the first point,
       reaches its extent. *)
    let cuts =
      Array.mapi
        (fun l e -> match p.wraps.(l) with Some t -> e - point0 t | None -> e)
        p.extents
    in
    (* Per-slot base offsets and per-column linear strides in the slot's
       buffer. *)
    let offs = Array.make naccs 0 in
    let str = Array.make_matrix naccs (2 * nv) 0 in
    Array.iteri
      (fun i s ->
        let g = geoms.(i) in
        let off = ref g.base in
        List.iteri
          (fun d v ->
            let local = point0 v - g.rect.Rect.lo.(d) in
            if local < 0 then
              invalid_arg ("Expr_stage.bind: leaf outside the instance of " ^ s.s_access.tensor);
            off := !off + (local * g.strides.(d));
            for l = 0 to (2 * nv) - 1 do
              str.(i).(l) <- str.(i).(l) + (s.s_coeffs.(d).(l) * g.strides.(d))
            done)
          s.s_access.indices;
        offs.(i) <- !off)
      p.slots;
    let oslot = naccs - 1 in
    (* Registry dispatch: only when the whole leaf box executes — no
       empty extents and every affine guard vacuously true over the box,
       so the nest's clamps never bind. The clamp bound at a guard's
       innermost level is >= the extent exactly when the guard's worst
       point stays below its bound, which is the check below. [kdisp_of]
       admits no variable with a wrap column, so a dispatched leaf has no
       cut. *)
    let dispatch =
      match p.kdisp with
      | Some kd ->
          let nonempty = Array.for_all (fun e -> e > 0) p.extents in
          let vacuous =
            List.for_all
              (fun (_, start, (b : bound_guard)) ->
                let worst = ref start in
                for l = 0 to nv - 1 do
                  worst := !worst + (b.coeffs.(l) * (p.extents.(l) - 1))
                done;
                !worst <= b.ext - 1)
              guards
          in
          if nonempty && vacuous then Some kd else None
      | _ -> None
    in
    match dispatch with
    | Some kd ->
        let operand slot =
          {
            src = geoms.(slot).src;
            off = offs.(slot);
            st = Array.map (fun l -> str.(slot).(l)) kd.kd_slot_lv.(slot);
          }
        in
        Kernel
          {
            kernel = kd.kd_name;
            dims = Array.map (fun l -> p.extents.(l)) kd.kd_lv;
            operands = Array.init naccs (fun i -> operand (if i = 0 then oslot else i - 1));
          }
    | None ->
        Nest
          {
            srcs = Array.map (fun (g : geom) -> g.src) geoms;
            rhs = p.rhs;
            extents = p.extents;
            cuts;
            start = Array.append offs (Array.of_list (List.map (fun (_, start, _) -> start) guards));
            str;
            clamps = select (fun g l -> g.g_dmax = l);
            bumps = select (fun g l -> g.g_coeffs.(l) > 0 && g.g_dmax > l);
          }

(* The flat loops of a bound nest, over the buffers [bufs] (indexed by
   a slot's [src]). The call owns the loop state: the slot offsets and
   guard values of the current point, from the leaf's first point on,
   each level undoing its own advance. A level with a cut runs its first
   segment, jumps to the second's first point, runs it and jumps back;
   each segment clamps its guards separately. *)
let run_nest n (bufs : Dense.buf array) =
  let naccs = Array.length n.srcs in
  let nv = Array.length n.extents in
  let data = Array.make naccs bufs.(n.srcs.(0)) in
  for a = 1 to naccs - 1 do
    data.(a) <- bufs.(n.srcs.(a))
  done;
  let st = Array.copy n.start and str = n.str in
  let od = data.(naccs - 1) in
  let body () =
    let v = n.rhs data st in
    let o = st.(naccs - 1) in
    A1.unsafe_set od o (A1.unsafe_get od o +. v)
  in
  (* Move the current point [d] steps along column [l]: the offsets, and
     the guards [gs] with them. *)
  let shift l d =
    for a = 0 to naccs - 1 do
      st.(a) <- st.(a) + (d * str.(a).(l))
    done
  in
  let bump gs l d =
    for k = 0 to Array.length gs - 1 do
      let g = gs.(k) in
      st.(g.at) <- st.(g.at) + (d * g.coeffs.(l))
    done
  in
  let rec segment l len =
    let hi = ref len and clamps = n.clamps.(l) in
    for k = 0 to Array.length clamps - 1 do
      let g = clamps.(k) in
      let room = g.ext - 1 - st.(g.at) in
      let h = if room < 0 then 0 else (room / g.coeffs.(l)) + 1 in
      if h < !hi then hi := h
    done;
    let hi = !hi and bumps = n.bumps.(l) in
    if l = nv - 1 then
      for _ = 1 to hi do
        body ();
        for a = 0 to naccs - 1 do
          st.(a) <- st.(a) + str.(a).(l)
        done
      done
    else
      for _ = 1 to hi do
        level (l + 1);
        shift l 1;
        bump bumps l 1
      done;
    shift l (-hi);
    bump bumps l (-hi)
  and jump l sign =
    let d = sign * n.cuts.(l) and w = nv + l in
    shift l d;
    bump n.clamps.(l) l d;
    bump n.bumps.(l) l d;
    shift w sign;
    bump n.clamps.(l) w sign;
    bump n.bumps.(l) w sign
  and level l =
    let e = n.extents.(l) and cut = n.cuts.(l) in
    if cut >= e then segment l e
    else begin
      segment l cut;
      jump l 1;
      segment l (e - cut);
      jump l (-1)
    end
  in
  if nv = 0 then body () else level 0
