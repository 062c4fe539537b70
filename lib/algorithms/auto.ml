(* Cost-guided automatic scheduling: a staged, pruned, memoized, parallel
   search over the space the paper defines (distribution notation x
   schedule transforms), with the simulator's cost model as objective.

   Stages (each lazily expanding the previous one):
     dist-var subset -> grid factorization -> canonicalize + dedup ->
     communicate placement per tensor -> replicate -> probe
   where a probe compiles the candidate schedule and model-runs it
   (kernel substitution is applied to every probe that matches a known
   leaf kernel: it never changes the modeled cost, only the executed
   one, so enumerating the unsubstituted twin would be probing a
   dominated duplicate).

   Before any compilation a candidate gets Tensor_stats bounds — certain
   residency vs the machine's memory, a lower bound on its modeled time —
   and is dropped when it provably cannot beat the best candidate found
   so far. Probes are memoized in a process-wide Lru keyed on the
   candidate's Api.request_fingerprint (which already encodes machine,
   statement, schedule script and tensor distributions) extended with the
   cost model's digest, so repeated searches — the serving layer's
   steady state — skip straight to the stats.

   Probing runs in fixed-size waves, each one Pool.parallel_for over its
   candidates. Determinism at every pool size comes from three
   invariants: the wave size is a constant (not the pool size), each
   probe writes the slot of a results array indexed by candidate,
   whichever domain claimed it, and the reduction folds that array in
   enumeration order. Each probe model-runs on the domain that claimed
   it: the simulation itself uses no pool. *)

module Api = Distal.Api
module Machine = Distal_machine.Machine
module Cost = Distal_machine.Cost_model
module Calibrate = Distal_machine.Calibrate
module Stats = Distal_runtime.Stats
module S = Distal_ir.Schedule
module D = Distal_ir.Distnot
module Expr = Distal_ir.Expr
module Kernel_match = Distal_ir.Kernel_match
module Ident = Distal_ir.Ident
module Ints = Distal_support.Ints
module Lru = Distal_support.Lru
module Pool = Distal_support.Pool

type candidate = {
  dist_vars : Distal_ir.Ident.t list;
  grid : int array;
  plan : Distal.Api.plan;
  stats : Distal_runtime.Stats.t;
}

type report = {
  enumerated : int;
  deduped : int;
  pruned : int;
  probed : int;
  memo_hits : int;
  infeasible : int;
  last_error : string option;
  wall_s : float;
}

let ( let* ) = Result.bind

(* {2 Probe memoization}

   One process-wide cache: searches from different sessions (or repeated
   searches over the same workload) share compiled plans and their
   modeled stats. The key is total — machine, statement, schedule,
   tensor distributions, cost model — so a hit is exactly the value the
   probe would recompute. *)

let cache : (string, Api.plan * Stats.t) Lru.t = Lru.create ~capacity:512

let cache_stats () = (Lru.hits cache, Lru.misses cache, Lru.evictions cache)

let clear_cache () = Lru.clear cache

(* {2 Enumeration} *)

let rec subsets_of_size k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest) @ subsets_of_size k rest

let rec factorizations p k =
  if k = 1 then [ [ p ] ]
  else
    List.concat_map
      (fun (a, rest) -> List.map (fun f -> a :: f) (factorizations rest (k - 1)))
      (Cosma_scheduler.factor_pairs p)

(* Grid dimensions of size 1 distribute nothing: [{i,j} over [4,1]] is
   the same plan as [{i} over [4]], re-probed. Canonical form drops them
   (with their variable); a fully degenerate grid becomes the serial
   candidate on the statement's first variable, so every all-ones grid
   collapses to one spec. *)
let canonicalize ~vars ~dist_vars ~grid =
  let kept =
    List.concat
      (List.mapi (fun i v -> if grid.(i) > 1 then [ (v, grid.(i)) ] else []) dist_vars)
  in
  match kept with
  | [] -> ([ List.hd vars ], [| 1 |])
  | ps -> (List.map fst ps, Array.of_list (List.map snd ps))

(* Communicate-placement options for one tensor: the innermost
   distributed loop (maximal aggregation of everything, the classic
   choice) and, when different, the innermost distributed loop that
   indexes the tensor (hoists the fetch of tensors invariant to the
   deeper loops, trading message count against staging memory). *)
let placement_options ~dist_vars (access : Expr.access) =
  let innermost = List.nth dist_vars (List.length dist_vars - 1) in
  let indexed = List.filter (fun v -> List.mem v access.indices) dist_vars in
  match List.rev indexed with
  | deepest :: _ when not (Ident.equal deepest innermost) -> [ innermost; deepest ]
  | _ -> [ innermost ]

let rec cartesian = function
  | [] -> [ [] ]
  | opts :: rest ->
      List.concat_map (fun choice -> List.map (fun c -> choice :: c) (cartesian rest)) opts

(* The induced format: each tensor partitioned by the distributed
   variables that index it; machine dimensions that do not index it
   either pin the tensor to their 0-face (stored once) or replicate it
   ([replicate] — trades memory for communication, the 3-D-algorithm
   tradeoff of §4). Outputs are never replicated. *)
let induced_dist ~replicate dist_vars (access : Expr.access) =
  let tensor_axes = List.mapi (fun d _ -> Printf.sprintf "x%d" d) access.indices in
  let machine_axes =
    List.map
      (fun v ->
        let rec pos d = function
          | [] -> None
          | w :: _ when Ident.equal w v -> Some d
          | _ :: rest -> pos (d + 1) rest
        in
        match pos 0 access.indices with
        | Some d -> D.Part (Printf.sprintf "x%d" d)
        | None -> if replicate then D.Bcast else D.Fix 0)
      dist_vars
  in
  [ { D.tensor_axes; machine_axes } ]

(* One fully staged candidate, ready to probe. *)
type spec = {
  s_idx : int;  (* enumeration order: the deterministic tiebreaker *)
  s_dist_vars : Ident.t list;
  s_grid : int array;
  s_replicate : bool;
  s_placements : (string * Ident.t) list;  (* tensor -> distributed var *)
  s_machine : Machine.t;
  s_cost : Cost.t;
  s_tensors : Api.tensor list;
  s_schedule : S.t list;
  s_fp : string;
  s_bounds : Tensor_stats.bounds;
}

let outer v = v ^ "_o"

let schedule_of ~dist_vars ~grid ~placements parsed =
  S.Distribute_onto
    {
      targets = dist_vars;
      dist = List.map outer dist_vars;
      local = List.map (fun v -> v ^ "_i") dist_vars;
      grid;
    }
  :: List.map
       (fun tn -> S.Communicate ([ tn ], outer (List.assoc tn placements)))
       (Expr.tensors parsed)

let fingerprint ~machine ~cost ~stmt ~tensors ~schedule =
  let script = String.concat "; " (List.map S.to_string schedule) in
  let req = Api.request ~machine ~stmt ~schedule:script ~tensors () in
  Api.request_fingerprint req ^ "+" ^ Cost.digest cost

(* Expand every stage, canonicalize, dedup by grid form and then by full
   fingerprint, and attach stat bounds. Candidates distribute at most
   three index variables. Returns specs in enumeration order plus the
   [enumerated]/[deduped] counts. *)
let enumerate ~cost ~machine_of ~procs ~stmt ~shapes ~parsed ~extents =
  let vars = Expr.index_vars parsed in
  let accesses = Expr.stmt_accesses parsed in
  let first_access tn =
    List.find (fun (a : Expr.access) -> String.equal a.tensor tn) accesses
  in
  let out_name = parsed.Expr.lhs.tensor in
  let enumerated = ref 0 and deduped = ref 0 in
  let seen_grid : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let seen_fp : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let specs = ref [] and idx = ref 0 in
  (* Number of specs a canonical pair expands to, for honest accounting
     of duplicates skipped before expansion. *)
  let expansion_size dist_vars =
    let placements =
      List.fold_left
        (fun acc tn -> acc * List.length (placement_options ~dist_vars (first_access tn)))
        1 (Expr.tensors parsed)
    in
    2 * placements
  in
  for k = 1 to min 3 (List.length vars) do
    List.iter
      (fun dist_vars ->
        List.iter
          (fun factors ->
            let grid = Array.of_list factors in
            let cvars, cgrid = canonicalize ~vars ~dist_vars ~grid in
            let gkey = String.concat "," cvars ^ "|" ^ Ints.to_string cgrid in
            if Hashtbl.mem seen_grid gkey then begin
              let n = expansion_size cvars in
              enumerated := !enumerated + n;
              deduped := !deduped + n
            end
            else begin
              Hashtbl.add seen_grid gkey ();
              let machine = machine_of cgrid in
              let cost =
                match cost with
                | Some c -> c
                | None -> Calibrate.calibrated (Api.default_cost machine)
              in
              let placement_combos =
                cartesian
                  (List.map
                     (fun tn -> placement_options ~dist_vars:cvars (first_access tn))
                     (Expr.tensors parsed))
              in
              List.iter
                (fun replicate ->
                  List.iter
                    (fun choices ->
                      incr enumerated;
                      let placements = List.combine (Expr.tensors parsed) choices in
                      let tensors =
                        List.map
                          (fun (tn, shape) ->
                            let replicate =
                              replicate && not (String.equal tn out_name)
                            in
                            Api.tensor_d tn shape
                              (induced_dist ~replicate cvars (first_access tn)))
                          shapes
                      in
                      let schedule =
                        schedule_of ~dist_vars:cvars ~grid:cgrid ~placements parsed
                      in
                      let fp = fingerprint ~machine ~cost ~stmt ~tensors ~schedule in
                      if Hashtbl.mem seen_fp fp then incr deduped
                      else begin
                        Hashtbl.add seen_fp fp ();
                        let bounds =
                          Tensor_stats.bounds ~cost
                            ~mem_per_proc:(Machine.mem_per_proc_bytes machine)
                            ~stmt:parsed ~extents ~shapes ~dist_vars:cvars
                            ~grid:cgrid ~replicate
                        in
                        specs :=
                          {
                            s_idx = !idx;
                            s_dist_vars = cvars;
                            s_grid = cgrid;
                            s_replicate = replicate;
                            s_placements = placements;
                            s_machine = machine;
                            s_cost = cost;
                            s_tensors = tensors;
                            s_schedule = schedule;
                            s_fp = fp;
                            s_bounds = bounds;
                          }
                          :: !specs;
                        incr idx
                      end)
                    placement_combos)
                [ false; true ]
            end)
          (factorizations procs k))
      (subsets_of_size k vars)
  done;
  (List.rev !specs, !enumerated, !deduped)

(* {2 Probing} *)

(* Compile the spec's schedule and model-run it; substitute the matched
   leaf kernel when the statement has one (falling back silently — the
   executor prices leaf compute by the statement's matched kernel whether
   or not the tree substitutes it, so the modeled cost is identical either
   way; only executed plans differ). *)
let compile_spec ~stmt ~parsed spec =
  let* problem =
    Api.problem ~machine:spec.s_machine ~stmt ~tensors:spec.s_tensors ()
  in
  let* plan = Api.compile problem ~schedule:spec.s_schedule in
  match Kernel_match.infer parsed with
  | None -> Ok plan
  | Some kernel -> (
      let outers = List.map outer spec.s_dist_vars in
      let inner =
        List.filter
          (fun v -> not (List.mem v outers))
          (Distal_ir.Cin.loop_vars plan.Api.cin)
      in
      match
        Api.compile problem ~schedule:(spec.s_schedule @ [ S.Substitute (inner, kernel) ])
      with
      | Ok plan -> Ok plan
      | Error _ -> Ok plan)

let probe ~stmt ~parsed spec =
  match Lru.find cache spec.s_fp with
  | Some (plan, stats) -> Ok (plan, stats, true)
  | None -> (
      let* plan = compile_spec ~stmt ~parsed spec in
      match Api.run ~mode:Api.Exec.Model ~cost:spec.s_cost plan ~data:[] with
      | Error e -> Error e
      | Ok r ->
          ignore (Lru.put cache spec.s_fp (plan, r.Api.Exec.stats));
          Ok (plan, r.Api.Exec.stats, false))

(* {2 The search driver} *)

(* Fixed wave width: determinism requires the wave boundaries (and hence
   the evolution of the pruning threshold) to be independent of how many
   domains happen to probe a wave. *)
let wave_size = 16

type state = {
  mutable found : (candidate * int) list;  (* with enumeration index *)
  mutable best : float option;  (* best non-OOM modeled time so far *)
  mutable pruned : int;
  mutable probed : int;
  mutable memo_hits : int;
  mutable infeasible : int;
  mutable last_error : string option;
}

(* A spec provably unable to beat the current best non-OOM candidate:
   either its certain residency overflows processor memory (it would be
   ranked behind every non-OOM candidate), or its modeled-time lower
   bound already meets the best time — such a candidate can at most tie
   the best, and ties rank behind it (earlier enumeration index wins), so
   probing it cannot change the winner. The tie case matters on
   compute-bound problems: with leaf-rate pricing and full
   compute/communication overlap the bound is exact for every candidate
   whose communication hides under the leaf compute, so entire families
   of equivalent grids collapse onto the best and are dropped without
   compilation. Without a non-OOM best nothing is pruned — the bounds
   alone never reject a candidate. *)
let prunable st spec =
  match st.best with
  | None -> false
  | Some bt -> (not spec.s_bounds.Tensor_stats.mem_ok) || spec.s_bounds.Tensor_stats.time_lb >= bt

let run_search ?cost ?domains ~machine_of ~procs ~stmt ~shapes () =
  let t0 = Pool.now () in
  let* parsed = Distal_ir.Einsum_parser.parse stmt in
  let* extents = Distal_ir.Typecheck.check parsed ~shapes in
  let vars = Expr.index_vars parsed in
  let* () = if vars = [] then Error "statement has no index variables" else Ok () in
  let specs, enumerated, deduped =
    enumerate ~cost ~machine_of ~procs ~stmt ~shapes ~parsed ~extents
  in
  (* Probe promising candidates first — the sooner the best tightens, the
     more the bounds prune. Lower bound then enumeration order: total and
     deterministic. *)
  let specs =
    List.sort
      (fun a b ->
        compare
          (a.s_bounds.Tensor_stats.time_lb, a.s_idx)
          (b.s_bounds.Tensor_stats.time_lb, b.s_idx))
      specs
  in
  let pool = Pool.get ?size:domains () in
  let st =
    {
      found = [];
      best = None;
      pruned = 0;
      probed = 0;
      memo_hits = 0;
      infeasible = 0;
      last_error = None;
    }
  in
  let rec waves = function
    | [] -> ()
    | specs ->
        (* Collect the next wave, dropping prunable specs against the
           current best as we go. *)
        let rec take acc n = function
          | [] -> (List.rev acc, [])
          | _ :: _ as rest when n = 0 -> (List.rev acc, rest)
          | s :: rest ->
              if prunable st s then begin
                st.pruned <- st.pruned + 1;
                take acc n rest
              end
              else take (s :: acc) (n - 1) rest
        in
        let wave, rest = take [] wave_size specs in
        let wave = Array.of_list wave in
        let n = Array.length wave in
        if n > 0 then begin
          let results = Array.make n (Error "unprobed") in
          Pool.parallel_for pool ~n (fun ~lane:_ i ->
              results.(i) <- probe ~stmt ~parsed wave.(i));
          (* Deterministic reduction: fold the wave in candidate order,
             whichever domain probed which candidate. *)
          Array.iteri
            (fun i r ->
              let spec = wave.(i) in
              match r with
              | Ok (plan, stats, hit) ->
                  st.probed <- st.probed + 1;
                  if hit then st.memo_hits <- st.memo_hits + 1;
                  st.found <-
                    ( {
                        dist_vars = spec.s_dist_vars;
                        grid = spec.s_grid;
                        plan;
                        stats;
                      },
                      spec.s_idx )
                    :: st.found;
                  if not stats.Stats.oom then
                    st.best <-
                      Some
                        (match st.best with
                        | None -> stats.Stats.time
                        | Some bt -> Float.min bt stats.Stats.time)
              | Error e ->
                  st.infeasible <- st.infeasible + 1;
                  st.last_error <- Some e)
            results
        end;
        waves rest
  in
  waves specs;
  let report =
    {
      enumerated;
      deduped;
      pruned = st.pruned;
      probed = st.probed;
      memo_hits = st.memo_hits;
      infeasible = st.infeasible;
      last_error = st.last_error;
      wall_s = Pool.now () -. t0;
    }
  in
  match st.found with
  | [] ->
      Error
        (Printf.sprintf
           "no feasible candidate found: %d enumerated, %d deduplicated, %d pruned, \
            %d probed, %d infeasible%s"
           report.enumerated report.deduped report.pruned report.probed
           report.infeasible
           (match report.last_error with
           | Some e -> "; last error: " ^ e
           | None -> ""))
  | found ->
      let sorted =
        List.sort
          (fun ((a : candidate), ai) ((b : candidate), bi) ->
            compare
              (a.stats.Stats.oom, a.stats.Stats.time, ai)
              (b.stats.Stats.oom, b.stats.Stats.time, bi))
          found
      in
      Ok (List.map fst sorted, report)

let search_report = run_search

let search ?cost ?domains ~machine_of ~procs ~stmt ~shapes () =
  let* cs, _ = run_search ?cost ?domains ~machine_of ~procs ~stmt ~shapes () in
  Ok cs

let best ?cost ?domains ~machine_of ~procs ~stmt ~shapes () =
  let* cs = search ?cost ?domains ~machine_of ~procs ~stmt ~shapes () in
  Ok (List.hd cs)

let describe c =
  Printf.sprintf "distribute {%s} over %s: %.3g s%s (%d msgs, %.3g GB moved)"
    (String.concat ", " c.dist_vars)
    (Ints.to_string c.grid) c.stats.Stats.time
    (if c.stats.Stats.oom then " OOM" else "")
    c.stats.Stats.messages
    ((c.stats.Stats.bytes_inter +. c.stats.Stats.bytes_intra) /. 1e9)

let describe_report r =
  Printf.sprintf
    "%d candidates enumerated, %d deduplicated, %d pruned, %d probed (%d memoized, \
     %d infeasible) in %.3g s"
    r.enumerated r.deduped r.pruned r.probed r.memo_hits r.infeasible r.wall_s
