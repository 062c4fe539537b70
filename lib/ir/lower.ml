let errf fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let lower (cin : Cin.t) ~shapes =
  let prov = cin.prov in
  let rec split_prefix acc = function
    | l :: rest when Cin.is_distributed l -> split_prefix (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let dist, rest = split_prefix [] cin.loops in
  let* () =
    if List.exists Cin.is_distributed rest then
      errf
        "distributed loops must form an outermost band (reorder them above all \
         sequential loops)"
    else Ok ()
  in
  (* One communicate point per tensor. *)
  let* comm_map =
    List.fold_left
      (fun acc (l : Cin.loop) ->
        let* acc = acc in
        List.fold_left
          (fun acc tn ->
            let* acc = acc in
            if List.mem_assoc tn acc then
              errf "tensor %s has more than one communicate point" tn
            else Ok ((tn, l.var) :: acc))
          (Ok acc)
          (Cin.communicated_tensors cin l))
      (Ok []) cin.loops
  in
  let svars, leaf_of_vars =
    match cin.substituted with
    | Some (svars, kernel) ->
        (svars, fun vars ->
          if vars <> svars then invalid_arg "Lower.lower: leaf variables differ from the substitution's";
          Taskir.Leaf (Named { kernel; vars }))
    | None -> ([], fun vars -> Taskir.Leaf (Scalar_loops vars))
  in
  let* () =
    if List.exists (fun (l : Cin.loop) -> List.mem l.var svars) dist then
      errf "cannot substitute a kernel over distributed loops"
    else if List.exists (fun (_, v) -> List.mem v svars) comm_map then
      errf "cannot communicate at a loop inside a substituted kernel"
    else Ok ()
  in
  let rest_not_sub = List.filter (fun (l : Cin.loop) -> not (List.mem l.var svars)) rest in
  (* Sequential loops reach down to the deepest communicate point; deeper
     loops fold into the leaf. With a substituted kernel, every
     non-substituted loop stays sequential. *)
  let seq_loops, leaf_loop_vars =
    match cin.substituted with
    | Some (svars, _) -> (rest_not_sub, svars)
    | None ->
        let deepest =
          List.fold_left max (-1)
            (List.mapi
               (fun i (l : Cin.loop) ->
                 if Cin.communicated_tensors cin l <> [] then i else -1)
               rest_not_sub)
        in
        let seq = List.filteri (fun i _ -> i <= deepest) rest_not_sub in
        let leaf = List.filteri (fun i _ -> i > deepest) rest_not_sub in
        (seq, List.map (fun (l : Cin.loop) -> l.var) leaf)
  in
  let wrap_ensures (l : Cin.loop) body =
    List.fold_right
      (fun tn acc -> Taskir.Ensure { tensor = tn; body = acc })
      (Cin.communicated_tensors cin l)
      body
  in
  (* Tensors with no explicit communicate default to the innermost point:
     an Ensure immediately around the leaf. *)
  let default_tensors =
    List.filter (fun tn -> not (List.mem_assoc tn comm_map)) (Expr.tensors cin.stmt)
  in
  let body = leaf_of_vars leaf_loop_vars in
  let body =
    List.fold_right
      (fun tn acc -> Taskir.Ensure { tensor = tn; body = acc })
      default_tensors body
  in
  let body =
    List.fold_right
      (fun (l : Cin.loop) acc ->
        Taskir.Seq_loop
          { var = l.var; extent = Provenance.extent prov l.var; body = wrap_ensures l acc })
      seq_loops body
  in
  let body = List.fold_right wrap_ensures dist body in
  let vars = List.map (fun (l : Cin.loop) -> l.var) dist in
  let dims = Array.of_list (List.map (Provenance.extent prov) vars) in
  let tree = Taskir.Launch { vars; dims; body } in
  let parallel_vars =
    List.filter_map
      (fun (l : Cin.loop) ->
        if List.mem Cin.Parallelized l.annots then Some l.var else None)
      cin.loops
  in
  Ok { Taskir.stmt = cin.stmt; prov; tree; shapes; parallel_vars }
