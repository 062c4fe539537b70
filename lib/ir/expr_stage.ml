module Ints = Distal_support.Ints
module Rect = Distal_tensor.Rect
module Dense = Distal_tensor.Dense
module Kreg = Distal_tensor.Kernel_registry
module A1 = Bigarray.Array1

(* Staged leaf evaluation.

   The generic leaf loop walks every point of the leaf box, re-resolves
   each index variable through [Provenance.raw_point], re-checks
   [Provenance.guards_ok], and evaluates the statement tree with a
   hashtable-backed environment — per element. All of that is loop
   structure, not data: for a fixed statement and leaf-variable nest,
   every access coordinate is an affine function of the leaf variables
   (integer base plus nonnegative per-variable coefficients), and every
   guard is either constant across the leaf or the same kind of affine
   form, whose passing set along the innermost contributing variable is a
   prefix [0, hi).

   [plan] runs that analysis once per (provenance, statement, leaf nest):
   it classifies every access index and every consumed (guarded) variable
   as constant / affine / neither, compiles the statement into a closure
   over the instances' bigarray buffers and precomputed slot offsets, and
   turns affine guards into per-level upper clamps. [bind] then
   specializes a plan to one leaf execution — concrete outer environment
   and buffer instances — producing flat loops whose executed points,
   order, and float operations match the generic path exactly;
   non-affine shapes fall back to the caller's oracle ([Expr.eval]).

   On top of the nest, [plan] also asks [Kernel_match] whether the
   statement is one of the registry's leaf kernels with the nest mapping
   one-to-one onto the kernel's iteration space ([kdisp_of] below). When
   it is and the bound leaf is guard-free, [bind] dispatches the whole
   leaf to [Kernel_registry] instead of running the nest — the
   cache-blocked tiled kernels preserve the nest's per-output-element
   operation order, so the dispatch is bit-identical (see DESIGN.md).

   Nothing here mutates shared state: plans are immutable and [bind]'s
   scratch is per-call, so staged execution is safe from concurrent
   domains. *)

type cls = C | A of int array  (* per-leaf-var coefficients, all >= 0 *)

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
      (* [Provenance.raw_point] of each guarded or accessed variable,
         compiled once *)
  leaf_vars : Ident.t array;
  extents : int array;  (* per leaf var *)
  leaf_index : (Ident.t, int) Hashtbl.t;
  slots : slot array;  (* rhs accesses left-to-right, then lhs last *)
  c_guards : (Ident.t * int) list;  (* consumed vars constant across the leaf *)
  a_guards : (Ident.t * aguard) list;
  kdisp : kdisp option;
  rhs : Dense.buf array -> int array -> float;
}

let slots p = Array.map (fun s -> s.s_access) p.slots

(* Classify a variable's raw point value as a function of the leaf
   variables. [None] = not representable (affine composed through a
   fuse or rotation of a leaf-dependent value). *)
let classify prov ~leaf_index ~nv =
  let memo : (Ident.t, cls option) Hashtbl.t = Hashtbl.create 16 in
  let zeros () = Array.make nv 0 in
  let norm a = if Array.for_all (fun c -> c = 0) a then C else A a in
  let rec go v =
    match Hashtbl.find_opt memo v with
    | Some c -> c
    | None ->
        let c =
          match Hashtbl.find_opt leaf_index v with
          | Some l ->
              let a = zeros () in
              a.(l) <- 1;
              Some (A a)
          | None -> (
              if Provenance.is_live prov v then Some C
              else
                match Provenance.consumption prov v with
                | None -> Some C  (* unknown or unconsumed: resolved at bind *)
                | Some (Provenance.Divided_into { outer; inner; inner_size }) -> (
                    match (go outer, go inner) with
                    | Some C, Some C -> Some C
                    | Some co, Some ci ->
                        let arr = function C -> zeros () | A a -> a in
                        let ao = arr co and ai = arr ci in
                        Some
                          (norm
                             (Array.init nv (fun l ->
                                  (ao.(l) * inner_size) + ai.(l))))
                    | _ -> None)
                | Some (Provenance.Fused_into { fused; _ }) -> (
                    match go fused with Some C -> Some C | _ -> None)
                | Some (Provenance.Rotated_into { result; by }) ->
                    if List.for_all (fun w -> go w = Some C) (result :: by) then
                      Some C
                    else None)
        in
        Hashtbl.replace memo v c;
        c
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
            | Some (A coeffs) ->
                let l = ref (-1) and ok = ref true in
                Array.iteri
                  (fun i c ->
                    if c <> 0 then
                      if c = 1 && !l < 0 then l := i else ok := false)
                  coeffs;
                if !ok && !l >= 0 then Some !l else None
            | _ -> None
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
  let leaf_vars = Array.of_list leaf_vars in
  let nv = Array.length leaf_vars in
  let leaf_index = Hashtbl.create (max 1 nv) in
  Array.iteri (fun i v -> Hashtbl.replace leaf_index v i) leaf_vars;
  let cls = classify prov ~leaf_index ~nv in
  let exception Bail in
  try
    let slot_of (a : Expr.access) =
      {
        s_access = a;
        s_coeffs =
          Array.of_list
            (List.map
               (fun v ->
                 match cls v with
                 | Some C -> Array.make nv 0
                 | Some (A c) -> c
                 | None -> raise Bail)
               a.indices);
      }
    in
    let slots =
      Array.of_list (List.map slot_of (Expr.accesses stmt.rhs @ [ stmt.lhs ]))
    in
    (* Guard set: exactly the consumed variables ([Provenance.guards_ok]
       auto-passes live ones). Sorted for a deterministic plan layout. *)
    let c_guards = ref [] and a_guards = ref [] in
    List.iter
      (fun v ->
        let ext = Provenance.extent prov v in
        match cls v with
        | Some C -> c_guards := (v, ext) :: !c_guards
        | Some (A coeffs) ->
            let dmax = ref (-1) in
            Array.iteri (fun l c -> if c > 0 then dmax := l) coeffs;
            a_guards :=
              (v, { g_coeffs = coeffs; g_ext = ext; g_dmax = !dmax })
              :: !a_guards
        | None -> raise Bail)
      (List.sort compare (Provenance.consumed prov));
    let points = Hashtbl.create 16 in
    List.iter
      (fun v -> Hashtbl.replace points v (Provenance.raw_point_fn prov v))
      (Provenance.consumed prov
      @ List.concat_map (fun s -> s.s_access.indices) (Array.to_list slots));
    Some
      {
        points;
        leaf_vars;
        extents = Array.map (Provenance.extent prov) leaf_vars;
        leaf_index;
        slots;
        c_guards = !c_guards;
        a_guards = !a_guards;
        kdisp = kdisp_of stmt ~cls ~nv;
        rhs = compile_rhs stmt.rhs;
      }
  with Bail -> None

type bound_guard = { coeffs : int array; ext : int; mutable curr : int }

let bind p ~env ~(insts : (Rect.t * Dense.t) array) =
  let nv = Array.length p.leaf_vars in
  let naccs = Array.length p.slots in
  if Array.length insts <> naccs then invalid_arg "Expr_stage.bind: bad insts";
  let env0 v = if Hashtbl.mem p.leaf_index v then Some 0 else env v in
  let point0 v = Hashtbl.find p.points v env0 in
  let exception Bail in
  try
    (* Leaf-constant guards: decided here, once. A failing one excludes
       every point, so the bound closure is a no-op (not a bail: the
       generic path would execute nothing too). *)
    let c_pass =
      List.for_all
        (fun (v, ext) ->
          match point0 v with None -> true | Some x -> 0 <= x && x < ext)
        p.c_guards
    in
    (* Affine guards: value over the leaf is base + sum(coeff * x). Bases
       must be known, nonnegative points here. *)
    let guards =
      List.map
        (fun (v, g) ->
          match point0 v with
          | Some base when base >= 0 ->
              (g, { coeffs = g.g_coeffs; ext = g.g_ext; curr = base })
          | _ -> raise Bail)
        p.a_guards
    in
    let select f =
      Array.init nv (fun l ->
          Array.of_list
            (List.filter_map
               (fun (g, b) -> if f g l then Some b else None)
               guards))
    in
    let clamps = select (fun g l -> g.g_dmax = l) in
    let bumps = select (fun g l -> g.g_coeffs.(l) > 0 && g.g_dmax > l) in
    (* Per-slot buffers, base offsets, and per-level linear strides. *)
    let data = Array.map (fun (_, b) -> Dense.unsafe_data b) insts in
    let offs = Array.make naccs 0 in
    let str = Array.make_matrix naccs nv 0 in
    Array.iteri
      (fun i s ->
        let r = fst insts.(i) in
        let dstr = Ints.row_major_strides (Dense.shape (snd insts.(i))) in
        let off = ref 0 in
        List.iteri
          (fun d v ->
            let x0 = match point0 v with Some x -> x | None -> raise Bail in
            let local = x0 - (r : Rect.t).lo.(d) in
            if local < 0 then raise Bail;
            off := !off + (local * dstr.(d));
            for l = 0 to nv - 1 do
              str.(i).(l) <- str.(i).(l) + (s.s_coeffs.(d).(l) * dstr.(d))
            done)
          s.s_access.indices;
        offs.(i) <- !off)
      p.slots;
    let oslot = naccs - 1 in
    (* Registry dispatch: only when the whole leaf box executes — no
       empty extents and every affine guard vacuously true over the box,
       so the nest's clamps never bind. The clamp bound at a guard's
       innermost level is >= the extent exactly when the guard's worst
       point stays below its bound, which is the check below. *)
    let dispatch =
      match p.kdisp with
      | Some kd ->
          let nonempty = Array.for_all (fun e -> e > 0) p.extents in
          let vacuous =
            List.for_all
              (fun (_, (b : bound_guard)) ->
                let worst = ref b.curr in
                Array.iteri
                  (fun l c -> worst := !worst + (c * (p.extents.(l) - 1)))
                  b.coeffs;
                !worst <= b.ext - 1)
              guards
          in
          if nonempty && vacuous then Some kd else None
      | _ -> None
    in
    match dispatch with
    | Some kd ->
        let dims = Array.map (fun l -> p.extents.(l)) kd.kd_lv in
        let view slot lvs =
          {
            Kreg.buf = data.(slot);
            off = offs.(slot);
            st = Array.map (fun l -> str.(slot).(l)) lvs;
          }
        in
        let views =
          Array.init naccs (fun i ->
              if i = 0 then view oslot kd.kd_slot_lv.(oslot)
              else view (i - 1) kd.kd_slot_lv.(i - 1))
        in
        Some
          (fun () ->
            if c_pass then
              Kreg.run_views ~kernel:kd.kd_name ~dims views)
    | None ->
        let rhs = p.rhs in
        let body () =
          let v = rhs data offs in
          let od = data.(oslot) in
          let o = offs.(oslot) in
          A1.unsafe_set od o (A1.unsafe_get od o +. v)
        in
        let rec nest l =
          let hi = ref p.extents.(l) in
          Array.iter
            (fun g ->
              let room = g.ext - 1 - g.curr in
              let h = if room < 0 then 0 else (room / g.coeffs.(l)) + 1 in
              if h < !hi then hi := h)
            clamps.(l);
          let hi = !hi in
          if l = nv - 1 then begin
            for _ = 1 to hi do
              body ();
              for a = 0 to naccs - 1 do
                offs.(a) <- offs.(a) + str.(a).(l)
              done
            done;
            for a = 0 to naccs - 1 do
              offs.(a) <- offs.(a) - (hi * str.(a).(l))
            done
          end
          else begin
            for _ = 1 to hi do
              nest (l + 1);
              for a = 0 to naccs - 1 do
                offs.(a) <- offs.(a) + str.(a).(l)
              done;
              Array.iter (fun g -> g.curr <- g.curr + g.coeffs.(l)) bumps.(l)
            done;
            for a = 0 to naccs - 1 do
              offs.(a) <- offs.(a) - (hi * str.(a).(l))
            done;
            Array.iter (fun g -> g.curr <- g.curr - (hi * g.coeffs.(l))) bumps.(l)
          end
        in
        Some
          (fun () ->
            if c_pass then if nv = 0 then body () else nest 0)
  with Bail -> None

let run p ~env ~insts =
  match bind p ~env ~insts with
  | Some f ->
      f ();
      true
  | None -> false
