module Rect = Distal_tensor.Rect

let check_rank ~shape (a : Expr.access) =
  if List.length a.indices <> Array.length shape then
    invalid_arg
      (Printf.sprintf "Bounds.access_rect: %s has %d indices but rank %d" a.tensor
         (List.length a.indices) (Array.length shape))

(* The rect whose dimension [d] is [interval d] clipped to the tensor's
   extent there. *)
let clipped_rect ~shape interval =
  let lo = Array.make (Array.length shape) 0 in
  let hi = Array.make (Array.length shape) 0 in
  for d = 0 to Array.length shape - 1 do
    let l, h = interval d in
    lo.(d) <- Int.min l shape.(d);
    hi.(d) <- Int.min h shape.(d);
    hi.(d) <- Int.max hi.(d) lo.(d)
  done;
  Rect.make ~lo ~hi

let access_rect prov ~env ~shape (a : Expr.access) =
  check_rank ~shape a;
  let vars = Array.of_list a.indices in
  clipped_rect ~shape (fun d -> Provenance.interval prov ~env vars.(d))

(* The accesses of [tensor] as (first, rest): a footprint is the hull of
   their rects. *)
let accesses_of stmt tensor =
  match
    List.filter (fun (a : Expr.access) -> String.equal a.tensor tensor) (Expr.stmt_accesses stmt)
  with
  | [] -> invalid_arg (Printf.sprintf "tensor %s is not accessed by the statement" tensor)
  | a :: rest -> (a, rest)

let tensor_footprint prov ~env ~stmt ~shape tensor =
  let a, rest = accesses_of stmt tensor in
  let rect = access_rect prov ~env ~shape in
  List.fold_left (fun acc a -> Rect.hull acc (rect a)) (rect a) rest

let footprint_fn prov ~slot ~stmt ~shape tensor =
  let compile (a : Expr.access) =
    check_rank ~shape a;
    Array.of_list (List.map (Provenance.interval_fn prov ~slot) a.indices)
  in
  let a, rest = accesses_of stmt tensor in
  let first = compile a and rest = List.map compile rest in
  let rect env fns = clipped_rect ~shape (fun d -> fns.(d) env) in
  fun env -> List.fold_left (fun acc fns -> Rect.hull acc (rect env fns)) (rect env first) rest
