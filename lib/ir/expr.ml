type access = { tensor : string; indices : Ident.t list }

type t =
  | Access of access
  | Const of float
  | Add of t * t
  | Sub of t * t
  | Mul of t * t

type stmt = { lhs : access; rhs : t; accum : bool }

let rec accesses = function
  | Access a -> [ a ]
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> accesses a @ accesses b

let stmt_accesses s = s.lhs :: accesses s.rhs

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
  |> List.rev

let tensors s = dedup (List.map (fun a -> a.tensor) (stmt_accesses s))
let index_vars s = dedup (List.concat_map (fun a -> a.indices) (stmt_accesses s))

let reduction_vars s =
  List.filter (fun v -> not (List.mem v s.lhs.indices)) (index_vars s)

let reads_output s =
  List.exists (fun a -> String.equal a.tensor s.lhs.tensor) (accesses s.rhs)

let eval s ~lookup ~point =
  let coords a = Array.of_list (List.map point a.indices) in
  let rec go = function
    | Access a -> lookup a (coords a)
    | Const c -> c
    | Add (a, b) -> go a +. go b
    | Sub (a, b) -> go a -. go b
    | Mul (a, b) -> go a *. go b
  in
  go s.rhs

let access_to_string a =
  if a.indices = [] then a.tensor
  else a.tensor ^ "(" ^ String.concat "," a.indices ^ ")"

let rec expr_to_string ?(parent_mul = false) e =
  match e with
  | Access a -> access_to_string a
  | Const c -> Printf.sprintf "%g" c
  | Mul (a, b) ->
      expr_to_string ~parent_mul:true a ^ " * " ^ expr_to_string ~parent_mul:true b
  | Add (a, b) ->
      let s = expr_to_string a ^ " + " ^ expr_to_string b in
      if parent_mul then "(" ^ s ^ ")" else s
  | Sub (a, b) ->
      let s = expr_to_string a ^ " - " ^ expr_to_string ~parent_mul:true b in
      if parent_mul then "(" ^ s ^ ")" else s

let to_string s =
  Printf.sprintf "%s %s %s" (access_to_string s.lhs)
    (if s.accum then "+=" else "=")
    (expr_to_string s.rhs)
