let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec product_chain = function
  | Expr.Mul (a, b) ->
      Option.bind (product_chain a) (fun xs ->
          Option.bind (product_chain b) (fun ys -> Some (xs @ ys)))
  | Expr.Access a -> Some [ a ]
  | _ -> None

let split (stmt : Expr.stmt) ~factors ~workspace =
  match product_chain stmt.rhs with
  | None -> errf "precompute requires a pure product of accesses"
  | Some chain ->
      let in_factors (a : Expr.access) = List.mem a.tensor factors in
      let hoisted = List.filter in_factors chain in
      let kept = List.filter (fun a -> not (in_factors a)) chain in
      if hoisted = [] then errf "none of the factors appear in the statement"
      else if kept = [] then errf "cannot hoist every factor"
      else if List.length hoisted <> List.length factors then
        errf "a named factor is missing or appears more than once"
      else if
        List.exists
          (fun (a : Expr.access) -> String.equal a.tensor workspace)
          (Expr.stmt_accesses stmt)
      then errf "workspace name %s is already used" workspace
      else begin
        let ws_vars =
          List.fold_left
            (fun acc (a : Expr.access) ->
              acc @ List.filter (fun v -> not (List.mem v acc)) a.indices)
            [] hoisted
        in
        let mul_chain = function
          | [] -> invalid_arg "Precompute.split: empty product"
          | a :: rest ->
              List.fold_left
                (fun e x -> Expr.Mul (e, Expr.Access x))
                (Expr.Access a) rest
        in
        let ws_access = { Expr.tensor = workspace; indices = ws_vars } in
        let ws_stmt = { Expr.lhs = ws_access; rhs = mul_chain hoisted; accum = false } in
        let rewritten =
          { stmt with Expr.rhs = mul_chain (kept @ [ ws_access ]) }
        in
        Ok (ws_stmt, rewritten)
      end

let workspace_shape stmt ~shapes ~workspace_stmt =
  let extents = Typecheck.check_exn stmt ~shapes in
  Array.of_list
    (List.map (fun v -> List.assoc v extents) workspace_stmt.Expr.lhs.indices)
