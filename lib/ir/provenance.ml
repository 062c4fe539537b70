type def =
  | Root of int
  | Outer_of of { parent : Ident.t; count : int }
  | Inner_of of { parent : Ident.t; inner_size : int }
  | Fused_of of { first : Ident.t; second : Ident.t }
  | Rotation_of of { target : Ident.t }

type consumption =
  | Divided_into of { outer : Ident.t; inner : Ident.t; inner_size : int }
  | Fused_into of { fused : Ident.t; pos : [ `First | `Second ] }
  | Rotated_into of { result : Ident.t; by : Ident.t list }

type t = {
  defs : (Ident.t, def) Hashtbl.t;
  cons : (Ident.t, consumption) Hashtbl.t;
  root_order : Ident.t list;
}

let create roots =
  let defs = Hashtbl.create 16 in
  List.iter (fun (v, n) -> Hashtbl.replace defs v (Root n)) roots;
  { defs; cons = Hashtbl.create 16; root_order = List.map fst roots }

let copy t =
  { t with defs = Hashtbl.copy t.defs; cons = Hashtbl.copy t.cons }

let mem t v = Hashtbl.mem t.defs v
let roots t = t.root_order
let consumption t v = Hashtbl.find_opt t.cons v
let consumed t = Hashtbl.fold (fun v _ acc -> v :: acc) t.cons []

let rec extent t v =
  match Hashtbl.find_opt t.defs v with
  | None -> invalid_arg (Printf.sprintf "Provenance.extent: unknown variable %s" v)
  | Some (Root n) -> n
  | Some (Outer_of { count; _ }) -> count
  | Some (Inner_of { inner_size; _ }) -> inner_size
  | Some (Fused_of { first; second }) -> extent t first * extent t second
  | Some (Rotation_of { target }) -> extent t target

let is_live t v = Hashtbl.mem t.defs v && not (Hashtbl.mem t.cons v)

let check_consumable t v =
  if not (Hashtbl.mem t.defs v) then Error (Printf.sprintf "unknown index variable %s" v)
  else if Hashtbl.mem t.cons v then
    Error (Printf.sprintf "index variable %s was already transformed away" v)
  else Ok ()

let check_new t v =
  if Hashtbl.mem t.defs v then
    Error (Printf.sprintf "index variable %s already exists" v)
  else Ok ()

let ( let* ) = Result.bind

let subdivide t parent ~outer ~inner ~inner_size ~count =
  let* () = check_consumable t parent in
  let* () = check_new t outer in
  let* () = if outer = inner then Error "outer and inner must differ" else check_new t inner in
  Hashtbl.replace t.defs outer (Outer_of { parent; count });
  Hashtbl.replace t.defs inner (Inner_of { parent; inner_size });
  Hashtbl.replace t.cons parent (Divided_into { outer; inner; inner_size });
  Ok ()

let divide t parent ~outer ~inner ~parts =
  if parts <= 0 then Error "divide: parts must be positive"
  else
    let* () = check_consumable t parent in
    let n = extent t parent in
    let inner_size = Distal_support.Ints.ceil_div n parts in
    subdivide t parent ~outer ~inner ~inner_size ~count:parts

let split t parent ~outer ~inner ~chunk =
  if chunk <= 0 then Error "split: chunk must be positive"
  else
    let* () = check_consumable t parent in
    let n = extent t parent in
    let count = Distal_support.Ints.ceil_div n chunk in
    subdivide t parent ~outer ~inner ~inner_size:chunk ~count

let fuse t ~first ~second ~fused =
  let* () = check_consumable t first in
  let* () = check_consumable t second in
  let* () = check_new t fused in
  Hashtbl.replace t.defs fused (Fused_of { first; second });
  Hashtbl.replace t.cons first (Fused_into { fused; pos = `First });
  Hashtbl.replace t.cons second (Fused_into { fused; pos = `Second });
  Ok ()

let rotate t ~target ~by ~result =
  let* () = check_consumable t target in
  let* () = check_new t result in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        if is_live t v then Ok ()
        else Error (Printf.sprintf "rotate: %s is not a live index variable" v))
      (Ok ()) by
  in
  Hashtbl.replace t.defs result (Rotation_of { target });
  Hashtbl.replace t.cons target (Rotated_into { result; by });
  Ok ()

(* Interval analysis. Unclipped ([raw_point_fn]), it lets exact point
   reconstruction detect guard-excluded boundary iterations; clipped
   ([interval], [interval_fn]), each consumed variable stays within its
   extent, which keeps the result a sound (superset) footprint.

   The analysis is compiled: [compile] resolves every name in the
   derivation graph once and returns a closure over an environment of any
   type. [lookup v] says how to read [v]'s binding off that environment
   ([None]: [v] is never bound there); a read returns [unbound] for an
   unbound variable. [interval] compiles and runs in one go; the
   simulator compiles once per execution against its slot arrays, and
   leaves once per plan ([raw_point_fn], [guards_fn]). *)

let unbound = min_int

let rec compile t ~lookup ~clipped v =
  let sub = compile t ~lookup ~clipped in
  let res =
    match Hashtbl.find_opt t.cons v with
    | None ->
        let e = extent t v in
        fun _ -> (0, e)
    | Some (Divided_into { outer; inner; inner_size }) ->
        let fo = sub outer and fi = sub inner in
        fun env ->
          let lo_o, hi_o = fo env in
          let lo_i, hi_i = fi env in
          ((lo_o * inner_size) + lo_i, ((hi_o - 1) * inner_size) + hi_i)
    | Some (Fused_into { fused; pos }) -> (
        let ff = sub fused in
        let eb =
          match Hashtbl.find_opt t.defs fused with
          | Some (Fused_of { second; _ }) -> extent t second
          | _ ->
              invalid_arg
                (Printf.sprintf "Provenance.interval: %s is not a fused variable" fused)
        in
        match pos with
        | `First ->
            fun env ->
              let lo_f, hi_f = ff env in
              (lo_f / eb, ((hi_f - 1) / eb) + 1)
        | `Second ->
            fun env ->
              let lo_f, hi_f = ff env in
              if hi_f - lo_f >= eb || (hi_f - 1) / eb <> lo_f / eb then (0, eb)
              else (lo_f mod eb, ((hi_f - 1) mod eb) + 1))
    | Some (Rotated_into { result; by }) ->
        let e = extent t v and fs = List.map sub (result :: by) in
        fun env ->
          let pieces = List.map (fun f -> f env) fs in
          if List.for_all (fun (lo, hi) -> hi = lo + 1) pieces then
            let s = List.fold_left (fun acc (lo, _) -> acc + lo) 0 pieces in
            let x = ((s mod e) + e) mod e in
            (x, x + 1)
          else (0, e)
  in
  let res =
    if clipped then
      let e = extent t v in
      fun env ->
        let lo, hi = res env in
        let lo = Int.max 0 lo and hi = Int.min e hi in
        (lo, Int.max lo hi)
    else res
  in
  match lookup v with
  | None -> res
  | Some read ->
      fun env ->
        let x = read env in
        if x = unbound then res env else (x, x + 1)

(* Environments keyed by name: every variable may be bound. *)
let by_name v = Some (fun env -> match env v with Some x -> x | None -> unbound)

let interval t ~env v = compile t ~lookup:by_name ~clipped:true v env

let interval_fn t ~slot v =
  compile t ~clipped:true v ~lookup:(fun v ->
      match slot v with
      | Some s -> Some (fun (env : int array) -> if env.(s) < 0 then unbound else env.(s))
      | None -> None)

let raw_point_fn t v =
  let f = compile t ~lookup:by_name ~clipped:false v in
  fun env ->
    let lo, hi = f env in
    if hi = lo + 1 then Some lo else None

let guards_fn t =
  let checks =
    Hashtbl.fold (fun v _ acc -> (raw_point_fn t v, extent t v) :: acc) t.defs []
  in
  fun env ->
    List.for_all
      (fun (point, e) -> match point env with None -> true | Some x -> 0 <= x && x < e)
      checks

let key_deps t ~bound v =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      if is_live t v then (if bound v then acc := ([ v ], extent t v) :: !acc)
      else
        match Hashtbl.find_opt t.cons v with
        | None -> ()
        | Some (Divided_into { outer; inner; _ }) ->
            go outer;
            go inner
        | Some (Fused_into { fused; _ }) -> go fused
        | Some (Rotated_into { result; by }) ->
            let vs = result :: by in
            if List.for_all (fun u -> is_live t u && bound u) vs then
              acc := (vs, extent t v) :: !acc
            else List.iter go vs
    end
  in
  go v;
  List.rev !acc

let rec roots_of t v =
  match Hashtbl.find_opt t.defs v with
  | None -> []
  | Some (Root _) -> [ v ]
  | Some (Outer_of { parent; _ }) | Some (Inner_of { parent; _ }) -> roots_of t parent
  | Some (Fused_of { first; second }) -> roots_of t first @ roots_of t second
  | Some (Rotation_of { target }) -> roots_of t target

let derives_from t v ~root = List.mem root (roots_of t v)
