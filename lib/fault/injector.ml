type t = {
  plan : Fault.t;
  strikes : (int * int) list;  (* (proc, at_step), at_step < nsteps, sorted *)
  dead_spans : (int * int) list array;  (* per proc: [from, until) half-open *)
}

let plan t = t.plan
let checkpointing t = t.plan.Fault.checkpoint
let interval t = t.plan.Fault.interval
let has_kills t = t.strikes <> []
let kills t = t.strikes

let dead t ~step ~proc =
  List.exists (fun (k, r) -> step >= k && step < r) t.dead_spans.(proc)

let msg_action t ~step ~tensor ~src ~dst =
  let matches (p : Fault.msg_pred) =
    (match p.Fault.tensor with Some x -> x = tensor | None -> true)
    && (match p.Fault.src with Some x -> x = src | None -> true)
    && (match p.Fault.dst with Some x -> x = dst | None -> true)
    && match p.Fault.at_step with Some x -> x = step | None -> true
  in
  List.find_map
    (fun (p, a) -> if matches p then Some a else None)
    t.plan.Fault.messages

let last_boundary t ~step =
  if t.plan.Fault.checkpoint then step / t.plan.Fault.interval * t.plan.Fault.interval
  else 0

let create plan ~nprocs ~nsteps =
  let ( let* ) = Result.bind in
  let* () = Fault.validate plan ~nprocs in
  let dead_spans = Array.make nprocs [] in
  List.iter
    (fun (k : Fault.kill) ->
      let until = match k.Fault.revive_at with Some r -> r | None -> max_int in
      dead_spans.(k.Fault.proc) <- (k.Fault.at_step, until) :: dead_spans.(k.Fault.proc))
    plan.Fault.kills;
  let strikes =
    List.filter_map
      (fun (k : Fault.kill) ->
        if k.Fault.at_step < nsteps then Some (k.Fault.proc, k.Fault.at_step) else None)
      plan.Fault.kills
    |> List.sort_uniq (fun (p1, s1) (p2, s2) ->
           match compare s1 s2 with 0 -> compare p1 p2 | c -> c)
  in
  let t = { plan; strikes; dead_spans } in
  (* The dead set only grows at kill steps, so its maximum is attained at
     one of them: checking each strike step suffices to guarantee a live
     failover target at every step. *)
  let* () =
    List.fold_left
      (fun acc (_, s) ->
        let* () = acc in
        let ndead = ref 0 in
        for p = 0 to nprocs - 1 do
          if dead t ~step:s ~proc:p then incr ndead
        done;
        if !ndead >= nprocs then
          Error
            (Printf.sprintf
               "fault plan kills every processor at step %d: nowhere to fail over" s)
        else Ok ())
      (Ok ()) strikes
  in
  Ok t
