type annot = Distributed | Parallelized | Communicate of string

type loop = { var : Ident.t; annots : annot list }

type t = {
  stmt : Expr.stmt;
  loops : loop list;
  prov : Provenance.t;
  substituted : (Ident.t list * string) option;
}

let of_stmt stmt ~shapes =
  match Typecheck.check stmt ~shapes with
  | Error e -> Error e
  | Ok extents ->
      Ok
        {
          stmt;
          loops = List.map (fun (v, _) -> { var = v; annots = [] }) extents;
          prov = Provenance.create extents;
          substituted = None;
        }

let loop_vars t = List.map (fun l -> l.var) t.loops

let find_loop t v =
  let rec go i = function
    | [] -> None
    | l :: _ when Ident.equal l.var v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.loops

let communicated_tensors _t loop =
  List.filter_map (function Communicate tn -> Some tn | _ -> None) loop.annots

let is_distributed loop = List.mem Distributed loop.annots

let distributed_vars t =
  List.filter_map (fun l -> if is_distributed l then Some l.var else None) t.loops

let to_string t =
  let quant l =
    let tags =
      List.filter_map
        (function
          | Distributed -> Some "dist"
          | Parallelized -> Some "par"
          | Communicate tn -> Some ("comm " ^ tn))
        l.annots
    in
    match tags with
    | [] -> Printf.sprintf "forall %s" l.var
    | tags -> Printf.sprintf "forall %s[%s]" l.var (String.concat "; " tags)
  in
  let loops = String.concat " " (List.map quant t.loops) in
  let leaf =
    match t.substituted with
    | None -> Expr.to_string t.stmt
    | Some (vars, kernel) ->
        Printf.sprintf "%s s.t. substitute({%s}, %s)" (Expr.to_string t.stmt)
          (String.concat "," vars) kernel
  in
  if t.loops = [] then leaf else loops ^ " . " ^ leaf
