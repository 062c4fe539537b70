(* Communication planning must be invisible to semantics: a plan moves
   exactly the same multiset of (tensor, element, src, dst) as the fetched
   fragments, a Full run's byte totals are those of its per-fragment copy
   trace while it sends fewer messages than fragments, and a
   redistribution prices exactly like the equivalent single-step
   execution. *)

module Rect = Distal_tensor.Rect
module Comm_plan = Distal_runtime.Comm_plan
module Cost = Distal_machine.Cost_model
module Rng = Distal_support.Rng
module Api = Distal.Api
module Machine = Api.Machine
module D = Api.Distnot
module Exec = Api.Exec
module Profile = Distal_obs.Profile
module Metrics = Distal_obs.Metrics
module Cp = Distal_obs.Critical_path

let rect lo hi = Rect.make ~lo:(Array.of_list lo) ~hi:(Array.of_list hi)
let show = Comm_plan.describe

(* {2 Merge behaviour} *)

let test_merge_units () =
  (* A column of abutting unit rects collapses to one block. *)
  let column = List.init 6 (fun i -> rect [ i; 0 ] [ i + 1; 1 ]) in
  (match Comm_plan.merge_rects column with
  | [ r ] -> Alcotest.(check string) "column" "[0,6)x[0,1)" (Rect.to_string r)
  | rs -> Alcotest.failf "column merged to %s" (show rs));
  (* A full 2D block of unit rects collapses to one rect, whatever the
     input order. *)
  let grid =
    List.concat_map (fun i -> List.init 3 (fun j -> rect [ j; i ] [ j + 1; i + 1 ]))
      [ 2; 0; 1 ]
  in
  (match Comm_plan.merge_rects grid with
  | [ r ] -> Alcotest.(check string) "grid" "[0,3)x[0,3)" (Rect.to_string r)
  | rs -> Alcotest.failf "grid merged to %s" (show rs))

let test_merge_strided () =
  (* Stride-2 rows never abut: the cyclic pattern stays an explicit
     strided run of k fragments. *)
  let strided = List.init 4 (fun i -> rect [ 2 * i ] [ (2 * i) + 1 ]) in
  let merged = Comm_plan.merge_rects strided in
  Alcotest.(check int) "stride-2 keeps its fragments" 4 (List.length merged);
  (* ...and merging is idempotent on it. *)
  Alcotest.(check int) "idempotent" 0
    (Comm_plan.compare_rects merged (Comm_plan.merge_rects merged))

(* {2 The multiset property} *)

(* Every integer point of a rect, as (coordinate list). *)
let points (r : Rect.t) =
  let dims = Rect.dim r in
  let acc = ref [] in
  let coord = Array.copy r.lo in
  let rec go d =
    if d = dims then acc := Array.to_list coord :: !acc
    else
      for x = r.lo.(d) to r.hi.(d) - 1 do
        coord.(d) <- x;
        go (d + 1)
      done
  in
  go 0;
  !acc

(* The multiset a plan moves: one (tensor, point, src, dst) per element
   per receiver. *)
let elements groups =
  List.concat_map
    (fun (g : Comm_plan.group) ->
      List.concat_map
        (fun dst ->
          List.concat_map
            (fun r -> List.map (fun p -> (g.Comm_plan.tensor, p, g.Comm_plan.src, dst)) (points r))
            g.Comm_plan.rects)
        (Array.to_list g.Comm_plan.receivers))
    groups
  |> List.sort compare

(* The multiset the fetches themselves move. *)
let fetched batches =
  List.concat_map
    (fun (_, src, dst, (p : Comm_plan.payload)) ->
      List.concat_map
        (fun r -> List.map (fun pt -> (p.Comm_plan.tensor, pt, src, dst)) (points r))
        p.Comm_plan.pieces)
    batches
  |> List.sort compare

(* One step's plan: the batches added to a table in order, then grouped. *)
let plan batches =
  let tab = Comm_plan.table () in
  List.iter (fun (t, src, dst, p) -> Comm_plan.add tab ~t ~src ~dst p) batches;
  Comm_plan.groups tab

(* Random batches: disjoint unit cells of a small box per batch, random
   (tensor, src, dst) per batch — collisions across batches exercise the
   triples that receive several payloads in one step. *)
let gen_batches rng =
  let dims = 1 + Rng.int rng 3 in
  let extent = 2 + Rng.int rng 4 in
  let nbatches = 1 + Rng.int rng 4 in
  List.init nbatches (fun _ ->
      let cells = ref [] in
      let coord = Array.make dims 0 in
      let rec sweep d =
        if d = dims then begin
          if Rng.int rng 3 > 0 then
            cells :=
              Rect.make ~lo:(Array.copy coord)
                ~hi:(Array.map succ coord)
              :: !cells
        end
        else
          for x = 0 to extent - 1 do
            coord.(d) <- x;
            sweep (d + 1)
          done
      in
      sweep 0;
      let pieces = if !cells = [] then [ rect [ 0 ] [ 1 ] ] else !cells in
      let t = Rng.int rng 2 in
      (t, Rng.int rng 4, Rng.int rng 4, Comm_plan.payload (if t = 0 then "A" else "B") pieces))

let key (g : Comm_plan.group) = (g.Comm_plan.tensor, g.Comm_plan.src, g.Comm_plan.rects)

let fuzz_multiset seed =
  let rng = Rng.create (seed * 257) in
  let batches = gen_batches rng in
  let planned = plan batches in
  if elements planned <> fetched batches then
    QCheck.Test.fail_reportf "plan moves a different element multiset";
  (* Internal consistency of every planned group. *)
  List.iter
    (fun (g : Comm_plan.group) ->
      if g.Comm_plan.fragments <> List.length g.Comm_plan.rects then
        QCheck.Test.fail_reportf "fragments /= |rects| in %s" (show g.Comm_plan.rects);
      let vol = List.fold_left (fun acc r -> acc + Rect.volume r) 0 g.Comm_plan.rects in
      if g.Comm_plan.bytes <> 8.0 *. float_of_int vol then
        QCheck.Test.fail_reportf "bytes %g /= 8 x payload volume %d" g.Comm_plan.bytes vol;
      let dsts = Array.to_list g.Comm_plan.receivers in
      if List.sort compare dsts <> dsts then
        QCheck.Test.fail_reportf "receivers out of order in %s" (show g.Comm_plan.rects))
    planned;
  (* Canonical order: strictly ascending (tensor, src, payload)... *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        let ta, sa, ra = key a and tb, sb, rb = key b in
        let c = compare (ta, sa) (tb, sb) in
        (c < 0 || (c = 0 && Comm_plan.compare_rects ra rb < 0)) && ascending rest
    | _ -> true
  in
  if not (ascending planned) then
    QCheck.Test.fail_reportf "groups out of canonical order";
  (* ...whatever order the batches arrived in. *)
  let same a b =
    List.length a = List.length b
    && List.for_all2
         (fun (x : Comm_plan.group) (y : Comm_plan.group) ->
           key x = key y && x.Comm_plan.receivers = y.Comm_plan.receivers)
         a b
  in
  if not (same planned (plan (List.rev batches))) then
    QCheck.Test.fail_reportf "plan depends on the order batches arrived in";
  (* One message per (tensor, src, dst) triple. *)
  let messages =
    List.concat_map
      (fun (g : Comm_plan.group) ->
        List.map
          (fun d -> (g.Comm_plan.tensor, g.Comm_plan.src, d))
          (Array.to_list g.Comm_plan.receivers))
      planned
  in
  let triples =
    List.map (fun (_, s, d, (p : Comm_plan.payload)) -> (p.Comm_plan.tensor, s, d)) batches
  in
  List.sort compare messages = List.sort_uniq compare triples
  || QCheck.Test.fail_reportf "plan is not one message per triple"

let qcheck_multiset =
  QCheck.Test.make ~name:"plan == fetched multiset" ~count:500
    QCheck.small_nat
    (fun seed -> fuzz_multiset (succ seed))

(* Two batches on one (tensor, src, dst) triple in one step become one
   message: their union. *)
let single_message batches =
  match plan batches with
  | [ g ] -> g
  | gs -> Alcotest.failf "expected one group, got %d" (List.length gs)

let test_two_batches_separated () =
  (* Hulls [0,2) and [4,6) leave a gap: no rect of one can merge with one
     of the other, so the union is their canonical concatenation. *)
  let a = Comm_plan.payload "A" [ rect [ 4 ] [ 5 ]; rect [ 5 ] [ 6 ] ] in
  let b = Comm_plan.payload "A" [ rect [ 0 ] [ 1 ]; rect [ 1 ] [ 2 ] ] in
  let g = single_message [ (0, 1, 2, a); (0, 1, 2, b) ] in
  Alcotest.(check string) "strided run" "[0,2) (+1 fragments)" (show g.Comm_plan.rects);
  Alcotest.(check int) "fragments" 2 g.Comm_plan.fragments;
  Alcotest.(check (float 0.0)) "bytes" 32.0 g.Comm_plan.bytes;
  Alcotest.(check (array int)) "receivers" [| 2 |] g.Comm_plan.receivers

let test_two_batches_overlapping () =
  (* Hulls [0,3) and [1,4) overlap: the union goes through [merge_rects],
     which closes the interleaved cells into one block. *)
  let a = Comm_plan.payload "A" [ rect [ 0 ] [ 1 ]; rect [ 2 ] [ 3 ] ] in
  let b = Comm_plan.payload "A" [ rect [ 1 ] [ 2 ]; rect [ 3 ] [ 4 ] ] in
  let g = single_message [ (0, 1, 2, a); (0, 1, 2, b) ] in
  Alcotest.(check string) "one block" "[0,4)" (show g.Comm_plan.rects);
  Alcotest.(check int) "fragments" 1 g.Comm_plan.fragments;
  Alcotest.(check (float 0.0)) "bytes" 32.0 g.Comm_plan.bytes

(* {2 Full-mode byte accounting} *)

(* The cyclic SUMMA GEMM from the simperf suite, scaled down: the
   worst-case fragment producer. *)
let cyclic_gemm_plan () =
  let machine = Machine.grid [| 2; 2 |] in
  let n = 16 in
  let p =
    Api.problem_exn ~machine ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| n; n |] ~dist:"[x,y] -> [x%1,y%1]";
          Api.tensor "C" [| n; n |] ~dist:"[x,y] -> [x%1,y%1]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); split(k, ko, ki, 4);\n\
       reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"

let metric run name =
  match Metrics.value run.Profile.metrics name with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing" name

let test_full_identity () =
  let plan = cyclic_gemm_plan () in
  let data = Api.random_inputs plan in
  let profile = Profile.create () in
  let trace = ref [] in
  ignore (Api.run_exn ~mode:Exec.Full ~trace ~profile plan ~data);
  let run = List.hd (Profile.runs profile) in
  (* The trace lists every fragment as it was fetched; the byte totals are
     its sum, overall and per tensor... *)
  let sum pred =
    List.fold_left (fun acc (e : Exec.trace_event) -> if pred e then acc +. e.bytes else acc)
      0.0 !trace
  in
  Alcotest.(check (float 0.0)) "bytes"
    (metric run "exec.bytes_intra" +. metric run "exec.bytes_inter") (sum (fun _ -> true));
  List.iter
    (fun t ->
      Alcotest.(check (float 0.0)) ("bytes of " ^ t)
        (metric run ("exec.bytes_by_tensor." ^ t)) (sum (fun e -> e.tensor = t)))
    [ "A"; "B"; "C" ];
  (* ...while the planned messages are fewer than the fragments. *)
  let fragments = List.length !trace in
  if metric run "exec.messages" >= float_of_int fragments then
    Alcotest.failf "planning did not reduce messages (%g for %d fragments)"
      (metric run "exec.messages") fragments;
  if metric run "exec.coalesce_ratio" <= 1.0 then
    Alcotest.failf "coalesce ratio %g should exceed 1 on a cyclic workload"
      (metric run "exec.coalesce_ratio")

(* {2 Redistribute prices like the equivalent execute step} *)

(* One owner scattering slices to every processor, on a half-duplex GPU
   cost model (so send+receive serialize and the combine rule matters):
   [redistribute] must produce exactly the per-processor communication
   occupancies, bytes and message count of the same exchange arising from
   a single-step execution. *)
let test_redistribute_parity () =
  let machine = Machine.grid ~kind:Machine.Gpu ~mem_per_proc:16e9 [| 4 |] in
  let cost = Cost.gpu_distal in
  let shape = [| 64 |] in
  let prof_r = Profile.create () in
  ignore
    (Exec.redistribute ~profile:prof_r machine cost ~shape
       ~src:(D.parse_exn "[x] -> [0]") ~dst:(D.parse_exn "[x] -> [x]"));
  let p =
    Api.problem_exn ~machine ~stmt:"A(i) = B(i)"
      ~tensors:
        [
          Api.tensor "A" shape ~dist:"[x] -> [x]";
          Api.tensor "B" shape ~dist:"[x] -> [0]";
        ]
      ()
  in
  let plan =
    Api.compile_script_exn p
      ~schedule:"divide(i, io, ii, 4); distribute(io); communicate(B, io)"
  in
  let prof_e = Profile.create () in
  ignore (Api.run_exn ~mode:Exec.Model ~cost ~profile:prof_e plan ~data:[]);
  let timeline p =
    match (List.hd (Profile.runs p)).Profile.timeline with
    | Some tl -> tl
    | None -> Alcotest.fail "no timeline"
  in
  let rstep =
    match (timeline prof_r).Cp.steps with
    | [ s ] -> s
    | ss -> Alcotest.failf "redistribute emitted %d steps" (List.length ss)
  in
  let estep =
    match List.filter (fun (s : Cp.step) -> s.Cp.messages > 0) (timeline prof_e).Cp.steps with
    | [ s ] -> s
    | ss -> Alcotest.failf "execute emitted %d communicating steps" (List.length ss)
  in
  Alcotest.(check int) "messages" estep.Cp.messages rstep.Cp.messages;
  Alcotest.(check (float 0.0)) "bytes" estep.Cp.bytes rstep.Cp.bytes;
  Alcotest.(check (float 0.0)) "fabric" estep.Cp.fabric rstep.Cp.fabric;
  (* Same per-processor communication occupancy (execute's slots also
     carry compute; redistribute's are comm-only). *)
  let comms (s : Cp.step) =
    List.filter_map
      (fun (sl : Cp.slot) -> if sl.Cp.comm > 0.0 then Some (sl.Cp.proc, sl.Cp.comm) else None)
      s.Cp.slots
  in
  Alcotest.(check (list (pair int (float 0.0)))) "per-proc comm occupancy"
    (comms estep) (comms rstep)

let suites =
  [
    ( "comm plan",
      [
        Alcotest.test_case "adjacent rects merge" `Quick test_merge_units;
        Alcotest.test_case "cyclic stride stays a strided run" `Quick test_merge_strided;
        QCheck_alcotest.to_alcotest qcheck_multiset;
        Alcotest.test_case "chain-separated batches on one triple" `Quick
          test_two_batches_separated;
        Alcotest.test_case "overlapping batches on one triple" `Quick
          test_two_batches_overlapping;
        Alcotest.test_case "Full trace sums to totals" `Quick test_full_identity;
        Alcotest.test_case "redistribute == single-step execute" `Quick
          test_redistribute_parity;
      ] );
  ]
