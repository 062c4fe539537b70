type slot = {
  proc : int;
  compute : float;
  comm : float;
  busy : float;
  flops : float;
  bytes_touched : float;
}

type copy = {
  tensor : string;
  rects : Distal_tensor.Rect.t list;
  fragments : int;
  src : int;
  bytes : float;
  receivers : int array;
}

type step = {
  index : int;
  start : float;
  cost : float;
  slots : slot list;
  bytes : float;
  messages : int;
  fabric : float;
  copies : copy list;
}

type episode = {
  victim : int;
  kill_step : int;
  from_step : int;
  detect : float;
  restore : float;
  replay : float;
}

type timeline = {
  nprocs : int;
  grid : int array;
  node_of : int array;
  tasks_per_proc : int;
  overhead : float;
  reduction : float;
  recovery : float;
  episodes : episode list;
  steps : step list;
  total : float;
  exchange : bool;
}

type node = {
  step : int;
  resource : string;
  compute : float;
  comm : float;
  cost : float;
}

type t = {
  end_time : float;
  nodes : node list;
  compute_time : float;
  comm_time : float;
  overhead : float;
  reduction : float;
  recovery : float;
  slack : (int * float) list;
  bottleneck : string;
}

let step_bottleneck s =
  let worst =
    List.fold_left
      (fun acc slot ->
        match acc with
        | Some best when best.busy >= slot.busy -> acc
        | _ -> Some slot)
      None s.slots
  in
  match worst with
  | Some slot when s.fabric <= slot.busy ->
      let compute = Float.min slot.compute s.cost in
      {
        step = s.index;
        resource = Printf.sprintf "proc %d" slot.proc;
        compute;
        comm = Float.max 0.0 (s.cost -. compute);
        cost = s.cost;
      }
  | Some _ | None ->
      (* No processor reaches the charged cost: the step is fabric-bound
         (or, with no slots at all, pure fabric traffic). *)
      { step = s.index; resource = "fabric"; compute = 0.0; comm = s.cost; cost = s.cost }

let analyse (tl : timeline) =
  (* The fixed links: launch overhead before the steps, the reduction and
     recovery epilogues after them, each only when it costs anything. *)
  let fixed resource ~comm cost =
    if cost > 0.0 then [ { step = -1; resource; compute = 0.0; comm; cost } ] else []
  in
  let nodes =
    fixed "runtime" ~comm:0.0 tl.overhead
    @ List.map step_bottleneck tl.steps
    @ fixed "reduction" ~comm:tl.reduction tl.reduction
    @ fixed "recovery" ~comm:0.0 tl.recovery
  in
  let compute_time = List.fold_left (fun acc n -> acc +. n.compute) 0.0 nodes in
  let comm_time = List.fold_left (fun acc n -> acc +. n.comm) 0.0 nodes in
  (* Each step's slots are indexed by processor once; the first slot of
     a processor counts. Each processor's idle time sums over the steps
     in order. *)
  let slack =
    let n = tl.nprocs in
    let idle = Array.make n 0.0 and busy = Array.make n 0.0 and seen = Array.make n (-1) in
    List.iteri
      (fun k (s : step) ->
        List.iter
          (fun (sl : slot) ->
            if sl.proc >= 0 && sl.proc < n && seen.(sl.proc) <> k then begin
              seen.(sl.proc) <- k;
              busy.(sl.proc) <- Float.min sl.busy s.cost
            end)
          s.slots;
        for p = 0 to n - 1 do
          let b = if seen.(p) = k then busy.(p) else 0.0 in
          idle.(p) <- idle.(p) +. (s.cost -. b)
        done)
      tl.steps;
    List.init n (fun p -> (p, idle.(p)))
  in
  let bottleneck =
    let totals = Hashtbl.create 8 in
    List.iter
      (fun n ->
        let t = try Hashtbl.find totals n.resource with Not_found -> 0.0 in
        Hashtbl.replace totals n.resource (t +. n.cost))
      nodes;
    let best =
      Hashtbl.fold
        (fun r t acc ->
          match acc with
          | Some (_, t0) when t0 >= t -> acc
          | _ -> Some (r, t))
        totals None
    in
    match best with Some (r, _) -> r | None -> "idle"
  in
  {
    end_time = tl.total;
    nodes;
    compute_time;
    comm_time;
    overhead = tl.overhead;
    reduction = tl.reduction;
    recovery = tl.recovery;
    slack;
    bottleneck;
  }
