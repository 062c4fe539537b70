(* The differential oracle: DISTAL's promise that a schedule changes only
   performance, never the result (§3.3), as one executable statement.

   A case is a request (machine x statement x distribution x schedule)
   and a data seed. The harness runs it through every axis that must not
   change the result and checks five things:

   1. The canonical run — [Exec.execute ~mode:Full ~domains:1],
      fault-free — is within 1e-9 of [Exec.serial_reference], and its
      stats equal a Model run's.
   2. Every axis point yields the canonical output bits for the same
      data. The axes: domains {1, 3}; faults {none, a seeded single kill
      with checkpointing (given at least two processors), a message
      drop}; entry point {one-shot [Exec.execute], cached [Api.run]
      replayed on a second data seed, a [Session] with caches on (run
      twice, so the second run is a result hit, then on the second
      seed), a [Session] with caches off}.
   3. Modeled stats are identical across domains, entry points and data
      seeds; under each fault setting Full stats equal Model stats.
   4. Copy traces and the profile's event stream are equal, event for
      event, at 1 and 3 domains.
   5. No Full run writes the caller's tensors: replay reads inputs in
      place, so every tensor handed to a run keeps its bits.

   The one-shot entry point runs every (domains, faults) point; the other
   entry points run a seeded sample in which every axis value appears.
   Generated cases and the named worst-case plans go through the same
   harness. *)

module Api = Distal.Api
module Machine = Api.Machine
module S = Api.Schedule
module D = Api.Distnot
module Dense = Api.Dense
module Exec = Api.Exec
module Stats = Api.Stats
module Fault = Api.Fault
module Rng = Distal_support.Rng
module Session = Distal_serve.Session
module Profile = Distal_obs.Profile

(* {2 DISTAL_SEED: reproducible fuzzing}

   QCheck fuzz suites register through [to_alcotest]: DISTAL_SEED=N pins
   the generator's random state, so a run explores the same case sequence
   on every host, and [seeded] prefixes any property failure with the
   per-case seed it was given — the failure message names the exact case
   to replay. *)

let to_alcotest ?(long = true) test =
  match Distal_support.Env.int_var "DISTAL_SEED" with
  | Some s ->
      QCheck_alcotest.to_alcotest ~long ~rand:(Random.State.make [| s |]) test
  | None -> QCheck_alcotest.to_alcotest ~long test

let seeded seed f =
  try f ()
  with e -> QCheck.Test.fail_reportf "[seed %d] %s" seed (Printexc.to_string e)

(* {2 The generator} *)

let var_pool = [| "i"; "j"; "k"; "l" |]
let pick rng l = List.nth l (Rng.int rng (List.length l))

(* A random statement over up to four index variables with fixed per-var
   extents; returns the statement string and the shapes it implies. *)
let gen_stmt rng =
  let extents = Array.map (fun v -> (v, 2 + Rng.int rng 3)) var_pool in
  let extent v = List.assoc v (Array.to_list extents) in
  let pick_vars k =
    (* k distinct variables *)
    let order = Array.copy var_pool in
    for i = Array.length order - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.to_list (Array.sub order 0 k)
  in
  let n_rhs = 1 + Rng.int rng 3 in
  let rhs_tensors =
    List.init n_rhs (fun idx ->
        let rank = 1 + Rng.int rng 3 in
        (Printf.sprintf "T%d" idx, pick_vars rank))
  in
  let rhs_vars =
    List.sort_uniq compare (List.concat_map snd rhs_tensors)
  in
  (* lhs: a (possibly empty) subset of the rhs variables. *)
  let lhs_vars = List.filter (fun _ -> Rng.int rng 2 = 0) rhs_vars in
  let op = if Rng.int rng 4 = 0 then " + " else " * " in
  let access (t, vs) =
    if vs = [] then t else Printf.sprintf "%s(%s)" t (String.concat "," vs)
  in
  let out_access = access ("Out", lhs_vars) in
  (* Sometimes accumulate into the output ([+=]), and sometimes make the
     statement self-reading: the output also read on the right-hand side,
     as in [A(i,j) = A(i,j) + B(i,j)]. *)
  let assign = if Rng.int rng 5 = 0 then " += " else " = " in
  let self_ref = Rng.int rng 4 = 0 in
  let stmt =
    Printf.sprintf "%s%s%s%s" out_access assign
      (String.concat op (List.map access rhs_tensors))
      (if self_ref then " + " ^ out_access else "")
  in
  let shapes =
    ("Out", Array.of_list (List.map extent lhs_vars))
    :: List.map (fun (t, vs) -> (t, Array.of_list (List.map extent vs))) rhs_tensors
  in
  (stmt, shapes, rhs_vars)

(* One level of a distribution: for each machine dimension, partition a
   distinct unused tensor axis (block or block-cyclic), fix to a
   coordinate, or broadcast. *)
let gen_level rng ~prefix ~rank ~mdims ~max_block =
  let tensor_axes = List.init rank (fun d -> Printf.sprintf "%s%d" prefix d) in
  let available = ref tensor_axes in
  let take () =
    let ax = pick rng !available in
    available := List.filter (fun a -> a <> ax) !available;
    ax
  in
  let machine_axes =
    Array.to_list
      (Array.map
         (fun extent ->
           match Rng.int rng 4 with
           | 0 when !available <> [] -> D.Part (take ())
           | 1 when !available <> [] ->
               (* Block 1 produces the per-element tile sets whose
                  transfers exercise the communication planner's
                  strided-run path. *)
               let ax = take () in
               D.Cyclic (ax, 1 + Rng.int rng max_block)
           | 2 -> D.Fix (Rng.int rng extent)
           | _ -> D.Bcast)
         mdims)
  in
  { D.tensor_axes; machine_axes }

(* A random valid distribution of a tensor onto the machine. *)
let gen_dist rng ~rank ~mdims =
  [ gen_level rng ~prefix:"x" ~rank ~mdims ~max_block:3 ]

(* A two-level distribution for a hierarchical machine: level one over
   the first machine dimension (nodes), level two over the second
   (processors of a node); [Distnot.level_tiles] composes the levels. *)
let gen_dist2 rng ~rank ~mdims =
  [
    gen_level rng ~prefix:"x" ~rank ~mdims:[| mdims.(0) |] ~max_block:2;
    gen_level rng ~prefix:"y" ~rank ~mdims:[| mdims.(1) |] ~max_block:2;
  ]

(* A random legal schedule over the statement's root variables:
   distribute a subset (reduction variables allowed — that makes a
   distributed reduction), maybe fuse the two local loops of a
   two-variable distribution (a fused leaf variable, staged as the nest of
   its parts; nothing splits it later), maybe split one remaining
   variable, move the split-outer loop below the distributed band and
   maybe rotate it by the distributed variables. *)
let gen_schedule rng ~rhs_vars =
  let dist =
    List.filter (fun _ -> Rng.int rng 3 = 0) rhs_vars |> List.filteri (fun i _ -> i < 2)
  in
  let distribute =
    if dist = [] then []
    else
      [
        S.Distribute_onto
          {
            targets = dist;
            dist = List.map (fun v -> v ^ "o") dist;
            local = List.map (fun v -> v ^ "i") dist;
            grid = Array.of_list (List.map (fun _ -> 1 + Rng.int rng 3) dist);
          };
      ]
  in
  let rest = List.filter (fun v -> not (List.mem v dist)) rhs_vars in
  (* The local loops sit where their variables did; moving them to the
     head of the loops below the band makes them adjacent. *)
  let collapse =
    match dist with
    | [ a; b ] when Rng.int rng 2 = 0 ->
        [ S.Reorder ((a ^ "i") :: (b ^ "i") :: rest); S.Collapse (a ^ "i", b ^ "i", a ^ b ^ "f") ]
    | _ -> []
  in
  let split =
    if rest = [] || Rng.int rng 2 = 1 then []
    else
      let v = pick rng rest in
      [ S.Split (v, v ^ "o", v ^ "i", 1 + Rng.int rng 3); S.Reorder [ v ^ "o" ] ]
      @
      if dist <> [] && Rng.int rng 2 = 0 then
        [
          S.Rotate
            { target = v ^ "o"; by = List.map (fun d -> d ^ "o") dist; result = v ^ "s" };
        ]
      else []
  in
  distribute @ collapse @ split

let script cmds = String.concat "; " (List.map S.to_string cmds)

let tiled = "[x,y] -> [x,y]"

(* A random statement on a flat or two-level machine, with random
   communicate points: the base schedule is compiled once to learn its
   loops, then a random subset of tensors communicates at random ones. *)
let gen_tensor_case rng =
  let stmt, shapes, rhs_vars = gen_stmt rng in
  let hierarchical = Rng.int rng 8 < 3 in
  let machine, dist =
    if hierarchical then
      let mdims = [| 1 + Rng.int rng 3; 1 + Rng.int rng 3 |] in
      ( Machine.grid ~node_factors:[| 1; mdims.(1) |] ~kind:Machine.Gpu
          ~mem_per_proc:16e9 mdims,
        gen_dist2 rng ~mdims )
    else
      let mdims = Array.init (1 + Rng.int rng 2) (fun _ -> 1 + Rng.int rng 3) in
      (Machine.grid mdims, gen_dist rng ~mdims)
  in
  let tensors =
    List.map
      (fun (name, shape) -> Api.tensor_d name shape (dist ~rank:(Array.length shape)))
      shapes
  in
  let schedule = gen_schedule rng ~rhs_vars in
  let request schedule =
    Api.request ~machine ~stmt ~tensors ~schedule:(script schedule) ()
  in
  match Api.compile_request (request schedule) with
  | Error e ->
      failwith (Printf.sprintf "compile failed for %s [%s]: %s" stmt (script schedule) e)
  | Ok plan ->
      let loops = Distal_ir.Cin.loop_vars plan.Api.cin in
      let communicate =
        List.filter_map
          (fun (name, _) ->
            if loops <> [] && Rng.int rng 2 = 0 then
              Some (S.Communicate ([ name ], pick rng loops))
            else None)
          shapes
      in
      request (schedule @ communicate)

(* The kernel family: GEMM on a random grid, SUMMA-style (split k by a
   chunk) or Cannon-style (divide k into chunk pieces and rotate them by
   the grid coordinates), with a scalar or a substituted gemm leaf. *)
let gen_gemm_case rng =
  let gx = 1 + Rng.int rng 3 and gy = 1 + Rng.int rng 3 in
  let n = 4 + Rng.int rng 5 and chunk = 1 + Rng.int rng 4 in
  let cannon = Rng.int rng 2 = 0 in
  let b_dist = pick rng [ tiled; "[x,y] -> [x%1,y%1]"; "[x,y] -> [x%2,y%2]" ] in
  let schedule =
    Printf.sprintf
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d]); %s(k, ko, ki, %d); \
       reorder(ko, ii, ji, ki); %scommunicate(A, jo); communicate({B,C}, %s)%s"
      gx gy
      (if cannon then "divide" else "split")
      chunk
      (if cannon then "rotate(ko, {io,jo}, kos); " else "")
      (if cannon then "kos" else "ko")
      (if Rng.int rng 2 = 0 then "; substitute({ii,ji,ki}, gemm)" else "")
  in
  Api.request ~machine:(Machine.grid [| gx; gy |]) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
    ~tensors:
      [
        Api.tensor "A" [| n; n |] ~dist:tiled;
        Api.tensor "B" [| n; n |] ~dist:b_dist;
        Api.tensor "C" [| n; n |] ~dist:tiled;
      ]
    ~schedule ()

let gen_case rng = if Rng.int rng 8 = 0 then gen_gemm_case rng else gen_tensor_case rng

(* {2 Named cases}

   Fixed plans that stress one path each; other suites reuse them. *)

let gemm ?virtual_grid ~grid ~n ~dists:(a, b, c) schedule =
  Api.request ?virtual_grid ~machine:(Machine.grid grid) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
    ~tensors:
      [
        Api.tensor "A" [| n; n |] ~dist:a;
        Api.tensor "B" [| n; n |] ~dist:b;
        Api.tensor "C" [| n; n |] ~dist:c;
      ]
    ~schedule ()

let summa ~chunk ~substitute =
  Printf.sprintf
    "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, %d); \
     reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)%s"
    chunk
    (if substitute then "; substitute({ii,ji,ki}, gemm)" else "")

(* A distributed reduction with cyclic inputs: tasks contribute partial
   sums that replay must merge in launch-point order, and the staged
   evaluator sees strided leaf footprints. *)
let reduction =
  gemm ~grid:[| 4 |] ~n:16 ~dists:("[x,y] -> [0]", "[x,y] -> [x%2]", "[x,y] -> [y%2]")
    "divide(k, ko, ki, 4); reorder(ko, i, j, ki); distribute(ko); communicate({A,B,C}, ko)"

(* An owner-computes GEMM over a 2-D grid: many independent points, no
   reduction epilogue. *)
let grid_gemm =
  gemm ~grid:[| 2; 2 |] ~n:12
    ~dists:(tiled, "[x,y] -> [x%1,y%1]", "[x,y] -> [x%1,y%1]")
    (summa ~chunk:3 ~substitute:false)

(* SUMMA with a block-cyclic B: strided fragment fetches and kernel
   slices, with the substituted kernel or the scalar nest. *)
let cyclic_gemm ~substitute =
  gemm ~grid:[| 2; 2 |] ~n:8 ~dists:(tiled, "[x,y] -> [x%2,y%2]", tiled)
    (summa ~chunk:4 ~substitute)

(* SUMMA on tiles: the tiled registry kernel, and the staged scalar nest
   that hands off to the same kernel. *)
let summa_gemm ~substitute =
  gemm ~grid:[| 2; 2 |] ~n:12 ~dists:(tiled, tiled, tiled) (summa ~chunk:4 ~substitute)

let vector ?virtual_grid ~grid ~stmt ~tensors schedule =
  Api.request ?virtual_grid ~machine:(Machine.grid grid) ~stmt
    ~tensors:(List.map (fun (name, shape, dist) -> Api.tensor name shape ~dist) tensors)
    ~schedule ()

(* An accumulating statement: the output's initial value is an input and
   replay must redo the read-modify-write exactly. *)
let accumulate =
  vector ~grid:[| 4 |] ~stmt:"A(i) += B(i) * C(i)"
    ~tensors:
      [
        ("A", [| 12 |], "[x] -> [x]");
        ("B", [| 12 |], "[x] -> [x%1]");
        ("C", [| 12 |], "[x] -> [x]");
      ]
    "divide(i, io, ii, 4); distribute(io); communicate({A,B,C}, io)"

(* Accumulating and self-reading, where a staging bug would double-count
   the output base. *)
let staged_accumulate =
  vector ~grid:[| 2 |] ~stmt:"A(i) += B(i,k) + A(i)"
    ~tensors:[ ("A", [| 10 |], "[x] -> [x]"); ("B", [| 10; 6 |], "[x,y] -> [x]") ]
    "divide(i, io, ii, 2); distribute(io); communicate({A,B}, io)"

(* A 3-way virtual grid folded onto 2 processors: virtual owners 0 and 2
   collide on processor 0 under a self-reading statement. *)
let virtual_grid_collision =
  vector ~virtual_grid:[| 3 |] ~grid:[| 2 |] ~stmt:"A(i) = A(i) + B(i)"
    ~tensors:[ ("A", [| 6 |], "[x] -> [x]"); ("B", [| 6 |], "[x] -> [x]") ]
    "divide(i, io, ii, 3); distribute(io); communicate({A,B}, io)"

(* Collapsing the local loops leaves a fused variable in the nest, which
   replay stages as the nest of its two parts. Its name is from when such
   leaves were evaluated point by point. *)
let unstaged_collapse =
  Api.request ~machine:(Machine.grid [| 2; 2 |]) ~stmt:"A(i,j) = B(i,j) + C(i,j)"
    ~tensors:(List.map (fun t -> Api.tensor t [| 8; 8 |] ~dist:tiled) [ "A"; "B"; "C" ])
    ~schedule:"distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); collapse(ii, ji, f)" ()

(* Cannon with B and C communicated at [jo] instead of [kos]: the
   rotated [kos] stays in the leaf nest, shifted by the launch point, so
   the leaf walks [ko] in two affine segments. The 10x10 tensors on 3x3
   leave boundary guards on i, j and k inside both segments. *)
let leaf_rotation =
  gemm ~grid:[| 3; 3 |] ~n:10 ~dists:(tiled, tiled, tiled)
    "distribute_onto({i,j}, {io,jo}, {ii,ji}, [3,3]); divide(k, ko, ki, 3); \
     reorder(ko, ii, ji, ki); rotate(ko, {io,jo}, kos); communicate(A, jo); \
     communicate({B,C}, jo)"

(* Communicating at the innermost loop leaves every leaf an empty nest:
   one point each, and none past the boundary of the 7-element vectors. *)
let empty_leaf_nest =
  vector ~grid:[| 2 |] ~stmt:"A(i) = B(i)"
    ~tensors:[ ("A", [| 7 |], "[x] -> [x]"); ("B", [| 7 |], "[x] -> [x]") ]
    "divide(i, io, ii, 2); distribute(io); communicate({A,B}, ii)"

(* Aliasing: replay reads input and read-out instances in place from
   the caller's tensors, so these must come back bit-identical. An
   accumulating substituted GEMM, whose output base is a caller tensor;
   a self-reading statement over a cyclic input, whose read-out instance
   aliases the caller's output; and a substituted GEMM whose leaf writes
   a slice of its output instance (the leaf walks half of each j tile). *)
let aliasing_accumulate =
  Api.request ~machine:(Machine.grid [| 2; 2 |]) ~stmt:"A(i,j) += B(i,k) * C(k,j)"
    ~tensors:(List.map (fun t -> Api.tensor t [| 12; 12 |] ~dist:tiled) [ "A"; "B"; "C" ])
    ~schedule:(summa ~chunk:4 ~substitute:true) ()

let aliasing_self_reference =
  Api.request ~machine:(Machine.grid [| 2; 2 |]) ~stmt:"A(i,j) = A(i,j) * B(i,j) + C(i,j)"
    ~tensors:
      [
        Api.tensor "A" [| 8; 8 |] ~dist:tiled;
        Api.tensor "B" [| 8; 8 |] ~dist:"[x,y] -> [x%2,y%2]";
        Api.tensor "C" [| 8; 8 |] ~dist:tiled;
      ]
    ~schedule:"distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); communicate({A,B,C}, jo)" ()

let aliasing_sliced_output =
  gemm ~grid:[| 2; 2 |] ~n:8 ~dists:(tiled, tiled, tiled)
    "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(ji, jio, jii, 2); \
     reorder(jio, ii, jii, k); communicate(A, jo); communicate({B,C}, jio); \
     substitute({ii,jii,k}, gemm)"

let named =
  [
    ("reduction", reduction);
    ("grid gemm", grid_gemm);
    ("cyclic gemm substituted", cyclic_gemm ~substitute:true);
    ("cyclic gemm scalar", cyclic_gemm ~substitute:false);
    ("summa substituted", summa_gemm ~substitute:true);
    ("summa scalar", summa_gemm ~substitute:false);
    ("accumulate", accumulate);
    ("staged accumulate", staged_accumulate);
    ("virtual grid collision", virtual_grid_collision);
    ("unstaged collapse", unstaged_collapse);
    ("aliasing accumulate", aliasing_accumulate);
    ("aliasing self-reference", aliasing_self_reference);
    ("aliasing sliced output", aliasing_sliced_output);
    ("leaf rotation", leaf_rotation);
    ("empty leaf nest", empty_leaf_nest);
  ]

(* {2 The harness} *)

let describe (r : Api.request) =
  Printf.sprintf "%s on %s%s with [%s], %s" r.Api.req_stmt
    (Distal_support.Ints.to_string r.Api.req_machine.Machine.dims)
    (match r.Api.req_virtual_grid with
    | Some g -> " virtual " ^ Distal_support.Ints.to_string g
    | None -> "")
    r.Api.req_schedule
    (String.concat ", "
       (List.map
          (fun (t : Api.tensor) -> t.Api.name ^ " " ^ D.to_string t.Api.dist)
          r.Api.req_tensors))

let bits (r : Exec.result) =
  match r.Exec.output with
  | None -> [||]
  | Some d -> Array.init (Dense.size d) (fun i -> Int64.bits_of_float (Dense.get_lin d i))

let get what = function Ok x -> x | Error e -> failwith (what ^ " failed: " ^ e)

(* Run [req] with data seed [seed] through the sample of axis points that
   [rng] picks, raising [Failure] on the first check that does not hold. *)
let check ~rng ~seed req =
  let fail fmt =
    Printf.ksprintf (fun s -> failwith (s ^ "\n  case: " ^ describe req)) fmt
  in
  let plan = get "compile" (Api.compile_request req) in
  let spec = Api.spec plan in
  let seed2 = seed + 1 in
  (* Every tensor handed to a run, with its bits when it was made. *)
  let handed = ref [] in
  let data seed =
    let d = Api.random_inputs ~seed plan in
    handed := List.map (fun (name, t) -> (name, t, Dense.to_le_bytes t)) d @ !handed;
    d
  in
  (* A one-shot Exec.execute on [seed]'s data, traced and profiled. *)
  let traced ?faults ~domains seed =
    let trace = ref [] and profile = Profile.create () in
    let r =
      get "one-shot run"
        (Exec.execute ~mode:Exec.Full ~domains ~trace ~profile ?faults spec ~data:(data seed))
    in
    (r, (!trace, Profile.events profile))
  in
  (* 1. The canonical run, per data seed, against the serial reference.
     On the first seed it is also the fault-free one-shot run at one
     domain. *)
  let canon, canon_observed = traced ~domains:1 seed in
  let canon2 =
    get "canonical run" (Exec.execute ~mode:Exec.Full ~domains:1 spec ~data:(data seed2))
  in
  let expected =
    let p = plan.Api.problem in
    Exec.serial_reference p.Api.stmt
      ~shapes:(List.map (fun (t : Api.tensor) -> (t.Api.name, t.Api.shape)) p.Api.tensors)
      ~data:(data seed)
  in
  (match canon.Exec.output with
  | Some got when Dense.approx_equal ~tol:1e-9 got expected -> ()
  | Some got ->
      fail "canonical run differs from the serial reference (max |diff| %g)"
        (Dense.max_abs_diff got expected)
  | None -> fail "canonical run produced no output");
  (* 3. Modeled stats: every Full run under one fault setting reports
     that setting's Model stats. *)
  let models = Hashtbl.create 4 in
  let model faults =
    let key = Option.map Fault.to_string faults in
    match Hashtbl.find_opt models key with
    | Some m -> m
    | None ->
        let m =
          Stats.to_string
            (get "model run" (Exec.execute ~mode:Exec.Model ?faults spec ~data:[]))
              .Exec.stats
        in
        Hashtbl.add models key m;
        m
  in
  let expect what faults ~seed (r : Exec.result) =
    let want = if seed = seed2 then canon2 else canon in
    if bits r <> bits want then fail "%s: output bits differ from the canonical run" what;
    let m = model faults and s = Stats.to_string r.Exec.stats in
    if not (String.equal m s) then
      fail "%s: stats differ from the Model run:\n%s\nvs\n%s" what s m
  in
  expect "canonical run" None ~seed canon;
  expect "canonical run, second seed" None ~seed:seed2 canon2;
  (* 2. One-shot runs under every fault setting at 1 and 3 domains; the
     sessions each take one fault value. *)
  let nprocs = Machine.num_procs plan.Api.problem.Api.machine in
  let kill = Fault.random_kill ~seed ~nprocs ~nsteps:4 in
  let drop = Fault.plan ~messages:[ Fault.drop ~step:(Rng.int rng 3) () ] () in
  let settings = if nprocs >= 2 then [ None; Some kill; Some drop ] else [ None; Some drop ] in
  let shift = Rng.int rng 3 in
  let faults i = List.nth settings ((i + shift) mod List.length settings) in
  let domains () = if Rng.int rng 2 = 0 then 1 else 3 in
  let label f fmt =
    let faults = match f with Some f -> Fault.to_string f | None -> "none" in
    Printf.ksprintf (fun what -> Printf.sprintf "%s, faults [%s]" what faults) fmt
  in
  (* One-shot Exec.execute, traced and profiled, at 1 and 3 domains. *)
  let one_shot f =
    let observed domains =
      let r, o = traced ?faults:f ~domains seed in
      expect (label f "Exec.execute, %d domains" domains) f ~seed r;
      o
    in
    let trace1, events1 = if Option.is_none f then canon_observed else observed 1 in
    let trace3, events3 = observed 3 in
    (* 4. The planning simulation's trace and events ignore the domains. *)
    let what = label f "Exec.execute at 1 and 3 domains" in
    if trace1 <> trace3 then fail "%s: copy trace differs" what;
    if events1 <> events3 then fail "%s: event stream differs" what
  in
  List.iter one_shot settings;
  (* The plan's cached executable plan, replayed on both seeds. *)
  let d = domains () in
  List.iter
    (fun seed ->
      let r = get "Api.run" (Api.run ~domains:d plan ~data:(data seed)) in
      expect (label None "cached Api.run, %d domains, seed %d" d seed) None ~seed r)
    [ seed; seed2 ];
  (* A session with caches on: a miss, a result hit, then the second
     seed, which must miss again. *)
  let f = faults 0 and d = domains () in
  let session = Session.create ~domains:d () in
  let served ~hit seed =
    let o = get "Session.run" (Session.run ?faults:f ~seed session req) in
    let what = label f "Session, %d domains, seed %d" d seed in
    if o.Session.result_cached <> hit then
      fail "%s: result_cached is %b" what o.Session.result_cached;
    expect what f ~seed o.Session.result
  in
  served ~hit:false seed;
  served ~hit:true seed;
  served ~hit:false seed2;
  (* A session with caches off. *)
  let f = faults 1 and d = domains () in
  let session = Session.create ~plan_cache:0 ~domains:d () in
  let o = get "Session.run" (Session.run ?faults:f ~seed session req) in
  expect (label f "uncached Session, %d domains" d) f ~seed o.Session.result;
  (* 5. The caller's tensors kept their bits. *)
  List.iter
    (fun (name, t, before) ->
      if not (Bytes.equal (Dense.to_le_bytes t) before) then
        fail "a Full run wrote the caller's tensor %s" name)
    !handed

let oracle_once seed =
  let rng = Rng.create seed in
  check ~rng ~seed (gen_case rng);
  true

let qcheck_oracle =
  QCheck.Test.make ~name:"generated cases" ~count:650
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 0x3FFF_FFFF))
    (fun seed -> seeded seed (fun () -> oracle_once seed))

let suites =
  [
    ( "oracle",
      to_alcotest qcheck_oracle
      :: List.mapi
           (fun i (name, req) ->
             Alcotest.test_case name `Quick (fun () ->
                 check ~rng:(Rng.create i) ~seed:(17 + i) req))
           named );
  ]
