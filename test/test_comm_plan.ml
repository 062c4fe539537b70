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
let show rs = String.concat " " (List.map Rect.to_string rs)

(* The canonical order on rects of equal rank: lexicographic on the
   interleaved (lo, hi) coordinates; on rect lists, lexicographic. *)
let compare_rect (a : Rect.t) (b : Rect.t) =
  let n = Array.length a.lo in
  let rec go i =
    if i = n then 0
    else
      let c = compare a.lo.(i) b.lo.(i) in
      if c <> 0 then c
      else
        let c = compare a.hi.(i) b.hi.(i) in
        if c <> 0 then c else go (i + 1)
  in
  go 0

let rec compare_rects a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare_rect x y in
      if c <> 0 then c else compare_rects xs ys

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
  Alcotest.(check bool) "idempotent" true
    (List.equal Rect.equal merged (Comm_plan.merge_rects merged))

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

let names = [| "A"; "B" |]

(* A step's groups as records. *)
let groups tab ~step = Comm_plan.copies tab (Comm_plan.plan tab ~step)

(* The multiset the fetches themselves move. *)
let fetched batches =
  List.concat_map
    (fun (_, t, src, dst, pieces) ->
      List.concat_map (fun r -> List.map (fun pt -> (names.(t), pt, src, dst)) (points r)) pieces)
    batches
  |> List.sort compare

(* A generated run: per payload its tensor and pieces, and the fetches as
   (step, payload number, src, dst). [realize] makes the payloads in one
   fresh table, in order, and adds the fetches in the order given. *)
type gen = { loads : (int * Rect.t list) array; fetches : (int * int * int * int) list }

let realize g fetches =
  let tab = Comm_plan.table ~names ~steps:2 in
  let loads = Array.map (fun (t, pieces) -> (t, Comm_plan.payload tab pieces)) g.loads in
  let batches =
    List.map
      (fun (step, k, src, dst) ->
        let t, p = loads.(k) in
        Comm_plan.add tab ~step ~t ~src ~dst p;
        (step, t, src, dst, Comm_plan.pieces tab p))
      fetches
  in
  (tab, batches)

(* Each step's groups, tagged with the step. *)
let plan g fetches =
  let tab, batches = realize g fetches in
  let tagged step = List.map (fun x -> (step, x)) (groups tab ~step) in
  (List.concat_map tagged [ 0; 1 ], batches)

(* Random runs of two steps: disjoint unit cells of a small box per
   payload, random (step, src, dst) per fetch. Collisions exercise the
   triples that receive several payloads in one step; some payloads copy
   an earlier one's tensor and value, so two objects with one value can
   share a (tensor, src) bucket; and some payloads go from one source to
   several destinations in one step, as a broadcast's do. *)
let gen_batches rng =
  let dims = 1 + Rng.int rng 3 in
  let extent = 2 + Rng.int rng 4 in
  let cells () =
    let cells = ref [] in
    let coord = Array.make dims 0 in
    let rec sweep d =
      if d = dims then begin
        if Rng.int rng 3 > 0 then
          cells := Rect.make ~lo:(Array.copy coord) ~hi:(Array.map succ coord) :: !cells
      end
      else
        for x = 0 to extent - 1 do
          coord.(d) <- x;
          sweep (d + 1)
        done
    in
    sweep 0;
    if !cells = [] then [ rect [ 0 ] [ 1 ] ] else !cells
  in
  let npayloads = 1 + Rng.int rng 4 in
  let loads = Array.make npayloads (0, []) in
  for k = 0 to npayloads - 1 do
    loads.(k) <-
      (if k > 0 && Rng.int rng 3 = 0 then loads.(Rng.int rng k) else (Rng.int rng 2, cells ()))
  done;
  let fetch () = (Rng.int rng 2, Rng.int rng npayloads, Rng.int rng 4, Rng.int rng 4) in
  let fetches = List.init (1 + Rng.int rng 6) (fun _ -> fetch ()) in
  let broadcast =
    if Rng.int rng 2 = 0 then []
    else
      let step, k, src, _ = fetch () in
      List.filter_map
        (fun dst -> if Rng.int rng 4 > 0 then Some (step, k, src, dst) else None)
        [ 0; 1; 2; 3 ]
  in
  { loads; fetches = fetches @ broadcast }

let key (step, (g : Comm_plan.group)) =
  (step, g.Comm_plan.tensor, g.Comm_plan.src, g.Comm_plan.rects)

let fuzz_multiset seed =
  let rng = Rng.create (seed * 257) in
  let g = gen_batches rng in
  let tagged, batches = plan g g.fetches in
  let planned = List.map snd tagged in
  let moved =
    List.concat_map
      (fun (step, grp) -> List.map (fun (t, pt, s, d) -> (step, t, pt, s, d)) (elements [ grp ]))
      tagged
    |> List.sort compare
  in
  let want =
    List.concat_map
      (fun ((step, _, _, _, _) as b) ->
        List.map (fun (t, pt, s, d) -> (step, t, pt, s, d)) (fetched [ b ]))
      batches
    |> List.sort compare
  in
  if moved <> want then QCheck.Test.fail_reportf "plan moves a different element multiset";
  (* Internal consistency of every planned group. *)
  List.iter
    (fun (g : Comm_plan.group) ->
      if g.Comm_plan.fragments <> List.length g.Comm_plan.rects then
        QCheck.Test.fail_reportf "fragments /= |rects| in %s" (show g.Comm_plan.rects);
      let vol = List.fold_left (fun acc r -> acc + Rect.volume r) 0 g.Comm_plan.rects in
      if g.Comm_plan.bytes <> 8.0 *. float_of_int vol then
        QCheck.Test.fail_reportf "bytes %g /= 8 x payload volume %d" g.Comm_plan.bytes vol;
      let dsts = Array.to_list g.Comm_plan.receivers in
      if List.sort_uniq compare dsts <> dsts then
        QCheck.Test.fail_reportf "receivers out of order in %s" (show g.Comm_plan.rects))
    planned;
  (* Canonical order: strictly ascending (step, tensor, src, payload)... *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        let sa, ta, xa, ra = key a and sb, tb, xb, rb = key b in
        let c = compare (sa, ta, xa) (sb, tb, xb) in
        (c < 0 || (c = 0 && compare_rects ra rb < 0)) && ascending rest
    | _ -> true
  in
  if not (ascending tagged) then QCheck.Test.fail_reportf "groups out of canonical order";
  (* ...whatever order the fetches arrived in. *)
  let same a b =
    List.length a = List.length b
    && List.for_all2
         (fun ((_, (x : Comm_plan.group)) as kx) ((_, (y : Comm_plan.group)) as ky) ->
           key kx = key ky && x.Comm_plan.receivers = y.Comm_plan.receivers
           && x.Comm_plan.bytes = y.Comm_plan.bytes)
         a b
  in
  if not (same tagged (fst (plan g (List.rev g.fetches)))) then
    QCheck.Test.fail_reportf "plan depends on the order fetches arrived in";
  (* One message per (step, tensor, src, dst) triple. *)
  let messages =
    List.concat_map
      (fun (step, (g : Comm_plan.group)) ->
        List.map
          (fun d -> (step, g.Comm_plan.tensor, g.Comm_plan.src, d))
          (Array.to_list g.Comm_plan.receivers))
      tagged
  in
  let triples = List.map (fun (step, t, s, d, _) -> (step, names.(t), s, d)) batches in
  List.sort compare messages = List.sort_uniq compare triples
  || QCheck.Test.fail_reportf "plan is not one message per triple"

let qcheck_multiset =
  QCheck.Test.make ~name:"plan == fetched multiset" ~count:500
    QCheck.small_nat
    (fun seed -> fuzz_multiset (succ seed))

(* {2 The Rect-list oracle}

   The grouping [Comm_plan] did on rect lists before its payloads moved
   into int arrays, kept as the reference the store-based grouping must
   equal group for group: the same tensor, source, rects, fragments,
   bytes and receivers, in the same order. *)

module Oracle = struct
  let sorted_by cmp a =
    let n = Array.length a in
    let rec go i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && go (i + 1)) in
    go 1

  (* One merging pass along [d]: sort (unless in order) so that rects
     equal in every other dimension are consecutive and ordered by
     [lo.(d)], then hull neighbours that abut. *)
  let merge_along d a =
    let cmp (x : Rect.t) (y : Rect.t) =
      let n = Array.length x.lo in
      let rec go i =
        if i = n then compare x.lo.(d) y.lo.(d)
        else if i = d then go (i + 1)
        else
          let c = compare x.lo.(i) y.lo.(i) in
          if c <> 0 then c
          else
            let c = compare x.hi.(i) y.hi.(i) in
            if c <> 0 then c else go (i + 1)
      in
      go 0
    in
    let mergeable (x : Rect.t) (y : Rect.t) =
      let n = Array.length x.lo in
      let rec same i =
        i = n || ((i = d || (x.lo.(i) = y.lo.(i) && x.hi.(i) = y.hi.(i))) && same (i + 1))
      in
      x.hi.(d) = y.lo.(d) && same 0
    in
    if not (sorted_by cmp a) then Array.sort cmp a;
    let n = Array.length a in
    if n <= 1 then a
    else begin
      let out = ref 0 in
      for i = 1 to n - 1 do
        let r = a.(i) in
        if mergeable a.(!out) r then a.(!out) <- Rect.hull a.(!out) r
        else begin
          incr out;
          a.(!out) <- r
        end
      done;
      Array.sub a 0 (!out + 1)
    end

  let merge_rects = function
    | ([] | [ _ ]) as rects -> rects
    | r0 :: _ as rects ->
        let a = ref (Array.of_list rects) in
        let rec fix () =
          let n = Array.length !a in
          for d = 0 to Rect.dim r0 - 1 do
            a := merge_along d !a
          done;
          if Array.length !a < n then fix ()
        in
        fix ();
        let res = !a in
        if not (sorted_by compare_rect res) then Array.sort compare_rect res;
        Array.to_list res

  let hull_of = function
    | [] -> None
    | (r : Rect.t) :: rest -> Some (List.fold_left Rect.hull r rest)

  (* Consecutive boxes keep a strict gap along one fixed dimension. *)
  let chain_separated boxes =
    match List.filter_map Fun.id boxes with
    | [] -> true
    | (b0 : Rect.t) :: _ as bs ->
        let d = Rect.dim b0 in
        let apart ok = List.exists Fun.id (List.init d ok) in
        let rec pairs = function
          | (a : Rect.t) :: ((b : Rect.t) :: _ as rest) -> (a, b) :: pairs rest
          | _ -> []
        in
        let ps = pairs bs in
        d <= 62
        && apart (fun k ->
               List.for_all (fun ((a : Rect.t), (b : Rect.t)) -> a.hi.(k) < b.lo.(k)) ps
               || List.for_all (fun ((a : Rect.t), (b : Rect.t)) -> b.hi.(k) < a.lo.(k)) ps)

  (* A message's value: its one payload's merged rects, or the union of
     its payloads (newest first). *)
  let value payloads =
    match payloads with
    | [ p ] -> merge_rects p
    | _ ->
        let loads = List.rev_map merge_rects payloads in
        let rects = List.concat loads in
        if chain_separated (List.map hull_of loads) then List.sort compare_rect rects
        else merge_rects rects

  let volume = List.fold_left (fun acc r -> acc + Rect.volume r) 0

  (* The groups of one step: fetches as (tensor, src, dst, pieces), in
     fetch order. *)
  let groups fetches =
    let triples =
      List.sort_uniq compare (List.map (fun (t, src, dst, _) -> (names.(t), src, dst)) fetches)
    in
    let messages =
      List.map
        (fun (tn, src, dst) ->
          let payloads =
            List.filter_map
              (fun (t, s, d, pieces) ->
                if names.(t) = tn && s = src && d = dst then Some pieces else None)
              fetches
          in
          (tn, src, value payloads, dst, List.fold_left (fun acc p -> acc + volume p) 0 payloads))
        triples
    in
    let messages =
      List.stable_sort
        (fun (ta, sa, va, da, _) (tb, sb, vb, db, _) ->
          let c = compare (ta, sa) (tb, sb) in
          if c <> 0 then c
          else
            let c = compare_rects va vb in
            if c <> 0 then c else compare da db)
        messages
    in
    let rec runs = function
      | [] -> []
      | (tn, src, v, _, _) :: _ as ms ->
          let same, rest =
            List.partition (fun (t, s, w, _, _) -> t = tn && s = src && compare_rects w v = 0) ms
          in
          let _, _, _, _, vol = List.nth same (List.length same - 1) in
          { Comm_plan.tensor = tn; rects = v; fragments = List.length v; src;
            bytes = 8.0 *. float_of_int vol;
            receivers = Array.of_list (List.map (fun (_, _, _, d, _) -> d) same) }
          :: runs rest
    in
    runs messages
end

let show_group (g : Comm_plan.group) =
  Printf.sprintf "%s src=%d [%s] frags=%d bytes=%g to [%s]" g.tensor g.src (show g.rects)
    g.fragments g.bytes
    (String.concat "," (List.map string_of_int (Array.to_list g.receivers)))

let same_group (a : Comm_plan.group) (b : Comm_plan.group) =
  a.tensor = b.tensor && a.src = b.src && List.equal Rect.equal a.rects b.rects
  && a.fragments = b.fragments && a.bytes = b.bytes && a.receivers = b.receivers

(* Every step's groups equal the oracle's, and every payload keeps its
   pieces in the order they were given. *)
let check_oracle g =
  let tab, batches = realize g g.fetches in
  Array.iteri
    (fun k (_, pieces) ->
      if not (List.equal Rect.equal (Comm_plan.pieces tab k) pieces) then
        QCheck.Test.fail_reportf "payload %d keeps [%s], not [%s]" k
          (show (Comm_plan.pieces tab k)) (show pieces))
    g.loads;
  List.iter
    (fun step ->
      let got = groups tab ~step in
      let want =
        Oracle.groups
          (List.filter_map
             (fun (s, t, src, dst, pieces) -> if s = step then Some (t, src, dst, pieces) else None)
             batches)
      in
      if not (List.length got = List.length want && List.for_all2 same_group got want) then
        QCheck.Test.fail_reportf "step %d: groups\n  %s\nthe oracle\n  %s" step
          (String.concat "\n  " (List.map show_group got))
          (String.concat "\n  " (List.map show_group want)))
    [ 0; 1 ];
  true

(* Payloads of one triple that tile a box between them: their union is
   not separated and merges. Cells of a random box go to 2-3 payloads at
   random; each payload is fetched once, from one source by one
   destination in one step, in a random order, and sometimes a second
   time. *)
let gen_merging rng =
  let dims = 1 + Rng.int rng 3 in
  let ext = Array.init dims (fun d -> if d = 0 then 3 + Rng.int rng 2 else 1 + Rng.int rng 3) in
  let np = 2 + Rng.int rng 2 in
  let parts = Array.make np [] and i = ref 0 in
  Distal_support.Ints.iter_box ext (fun c ->
      let k = if !i < np then !i else Rng.int rng np in
      incr i;
      parts.(k) <- Rect.make ~lo:(Array.copy c) ~hi:(Array.map succ c) :: parts.(k));
  let fetches = List.init np (fun k -> (0, k, 1, 2)) in
  let fetches = if Rng.int rng 2 = 0 then fetches else List.rev fetches in
  let twice = if Rng.int rng 3 = 0 then [ (0, Rng.int rng np, 1, 2) ] else [] in
  { loads = Array.map (fun cells -> (0, List.rev cells)) parts; fetches = fetches @ twice }

(* The generator above, with some fetches made twice: one destination
   fetching one payload twice in one step. *)
let gen_oracle seed =
  let rng = Rng.create (seed * 131) in
  if Rng.int rng 3 = 0 then gen_merging rng
  else
    let g = gen_batches rng in
    let again = List.filter (fun _ -> Rng.int rng 4 = 0) g.fetches in
    { g with fetches = g.fetches @ again }

let qcheck_oracle =
  QCheck.Test.make ~name:"groups == Rect-list oracle" ~count:1000 QCheck.small_nat (fun seed ->
      check_oracle (gen_oracle (succ seed)))

(* The one group of a step whose payloads (tensor A) are made in one
   table in order and fetched from processor 1 as (payload, dst). *)
let single_group loads fetches =
  let g = { loads = Array.of_list (List.map (fun pieces -> (0, pieces)) loads);
            fetches = List.map (fun (k, dst) -> (0, k, 1, dst)) fetches } in
  match fst (plan g g.fetches) with
  | [ (_, grp) ] -> grp
  | gs -> Alcotest.failf "expected one group, got %d" (List.length gs)

(* Two batches on one (tensor, src, dst) triple in one step become one
   message: their union. *)
let test_two_batches_separated () =
  (* Hulls [0,2) and [4,6) leave a gap: no rect of one can merge with one
     of the other, so the union is their canonical concatenation. *)
  let g =
    single_group
      [ [ rect [ 4 ] [ 5 ]; rect [ 5 ] [ 6 ] ]; [ rect [ 0 ] [ 1 ]; rect [ 1 ] [ 2 ] ] ]
      [ (0, 2); (1, 2) ]
  in
  Alcotest.(check string) "strided run" "[0,2) [4,6)" (show g.Comm_plan.rects);
  Alcotest.(check int) "fragments" 2 g.Comm_plan.fragments;
  Alcotest.(check (float 0.0)) "bytes" 32.0 g.Comm_plan.bytes;
  Alcotest.(check (array int)) "receivers" [| 2 |] g.Comm_plan.receivers

let test_two_batches_overlapping () =
  (* Hulls [0,3) and [1,4) overlap: the union goes through [merge_rects],
     which closes the interleaved cells into one block. *)
  let g =
    single_group
      [ [ rect [ 0 ] [ 1 ]; rect [ 2 ] [ 3 ] ]; [ rect [ 1 ] [ 2 ]; rect [ 3 ] [ 4 ] ] ]
      [ (0, 2); (1, 2) ]
  in
  Alcotest.(check string) "one block" "[0,4)" (show g.Comm_plan.rects);
  Alcotest.(check int) "fragments" 1 g.Comm_plan.fragments;
  Alcotest.(check (float 0.0)) "bytes" 32.0 g.Comm_plan.bytes

(* Two payload objects with one value, sent from one source to
   interleaved destinations, are one broadcast: one group, its receivers
   merged and ascending. *)
let test_equal_values_one_group () =
  let block = [ rect [ 0; 0 ] [ 2; 1 ]; rect [ 0; 1 ] [ 2; 2 ] ] in
  let g = single_group [ block; block ] [ (0, 5); (1, 0); (0, 3); (1, 4) ] in
  Alcotest.(check string) "value" "[0,2)x[0,2)" (show g.Comm_plan.rects);
  Alcotest.(check (array int)) "receivers" [| 0; 3; 4; 5 |] g.Comm_plan.receivers;
  Alcotest.(check (float 0.0)) "bytes" 32.0 g.Comm_plan.bytes;
  Alcotest.(check int) "src" 1 g.Comm_plan.src

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
        QCheck_alcotest.to_alcotest qcheck_oracle;
        Alcotest.test_case "chain-separated batches on one triple" `Quick
          test_two_batches_separated;
        Alcotest.test_case "overlapping batches on one triple" `Quick
          test_two_batches_overlapping;
        Alcotest.test_case "equal payload values form one group" `Quick
          test_equal_values_one_group;
        Alcotest.test_case "Full trace sums to totals" `Quick test_full_identity;
        Alcotest.test_case "redistribute == single-step execute" `Quick
          test_redistribute_parity;
      ] );
  ]
