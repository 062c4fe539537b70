module Ints = Distal_support.Ints
module Rect = Distal_tensor.Rect
module Cost = Distal_machine.Cost_model

type payload = {
  tensor : string;
  pieces : Rect.t list;
  merged : Rect.t list;
  nfrag : int;
  volume : int;
}

type raw = { payload : payload; src : int; dst : int; link : Cost.link }

type xfer = {
  tensor : string;
  src : int;
  dst : int;
  link : Cost.link;
  rects : Rect.t list;
  fragments : int;
  volume : int;
}

let icmp (a : int) (b : int) = if a < b then -1 else if a > b then 1 else 0

(* Canonical order on rects of equal rank: lexicographic on the
   interleaved (lo, hi) coordinates. *)
let compare_rect (a : Rect.t) (b : Rect.t) =
  let n = Array.length a.lo in
  let rec go i =
    if i = n then 0
    else
      let c = icmp a.lo.(i) b.lo.(i) in
      if c <> 0 then c
      else
        let c = icmp a.hi.(i) b.hi.(i) in
        if c <> 0 then c else go (i + 1)
  in
  go 0

let rec compare_rects a b =
  if a == b then 0
  else
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
        let c = compare_rect x y in
        if c <> 0 then c else compare_rects xs ys

let sorted_by cmp a =
  let n = Array.length a in
  let rec go i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && go (i + 1)) in
  go 1

(* One merging pass along dimension [d], in place: sort so that rects
   identical in every other dimension are consecutive and ordered by
   [lo.(d)], then union neighbours that abut ([prev.hi.(d) = next.lo.(d)]).
   The rects of a batch are disjoint, so abutting is the only way to be
   mergeable. This is the planner's hot loop, so it works on arrays, skips
   the sort when the input already has the right order (tile discovery
   order usually does), and compacts merged runs in place. *)
let merge_along d a =
  let cmp (x : Rect.t) (y : Rect.t) =
    let n = Array.length x.lo in
    let rec go i =
      if i = n then icmp x.lo.(d) y.lo.(d)
      else if i = d then go (i + 1)
      else
        let c = icmp x.lo.(i) y.lo.(i) in
        if c <> 0 then c
        else
          let c = icmp x.hi.(i) y.hi.(i) in
          if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let mergeable (x : Rect.t) (y : Rect.t) =
    let n = Array.length x.lo in
    let rec same i =
      i = n
      || ((i = d || (x.lo.(i) = y.lo.(i) && x.hi.(i) = y.hi.(i))) && same (i + 1))
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
    if !out = n - 1 then a else Array.sub a 0 (!out + 1)
  end

(* Union adjacent rects to a fixed point: sweep every dimension, and repeat
   while the sweep still shrinks the set — merging along one dimension can
   create alignment that enables a merge along another. The final canonical
   sort is usually free: the last sweep leaves the array ordered by
   (outer dims, innermost lo), which coincides with the canonical order for
   disjoint rects. *)
let merge_rects = function
  | ([] | [ _ ]) as rects -> rects
  | r0 :: _ as rects ->
      let dims = Rect.dim r0 in
      let a = ref (Array.of_list rects) in
      let rec fix () =
        let n = Array.length !a in
        for d = 0 to dims - 1 do
          a := merge_along d !a
        done;
        if Array.length !a < n then fix ()
      in
      fix ();
      let res = !a in
      if not (sorted_by compare_rect res) then Array.sort compare_rect res;
      Array.to_list res

let batch ~tensor ~src ~dst ~link pieces =
  let nfrag = List.length pieces in
  let volume = List.fold_left (fun acc r -> acc + Rect.volume r) 0 pieces in
  { payload = { tensor; pieces; merged = merge_rects pieces; nfrag; volume }; src; dst; link }

let compare_xfer a b =
  let c = if a.tensor == b.tensor then 0 else String.compare a.tensor b.tensor in
  if c <> 0 then c
  else
    let c = icmp a.src b.src in
    if c <> 0 then c
    else
      let c = compare_rects a.rects b.rects in
      if c <> 0 then c else icmp a.dst b.dst

let make_xfer tensor src dst link rects volume =
  { tensor; src; dst; link; rects; fragments = List.length rects; volume }

let hull_of = function
  | [] -> None
  | (r : Rect.t) :: rest -> Some (List.fold_left Rect.hull r rest)

(* No rect of a batch with bounding box [a] can ever merge with one of a
   batch with bounding box [b] when some dimension leaves a strict gap
   between the boxes: merging requires abutting coordinates ([hi = lo],
   bounds are exclusive) in one dimension and equal bounds in every
   other, and a gap rules both out — including transitively, since a
   merged rect stays inside its batch's box.

   A strict gap along one {e fixed} dimension chains: if consecutive
   boxes in the list keep a strict gap along dimension [k], every pair
   of boxes does. So one linear pass suffices — track, per dimension, a
   bit for "still strictly ascending with gaps" and one for descending,
   and accept when any dimension survives. Cyclic distributions hit
   this constantly (each task's fetch plan is a distinct stripe of the
   owner's data, discovered in stripe order); anything irregular falls
   back to the full merge, which stays correct, just slower. *)
let chain_separated rs =
  let rec start = function
    | [] -> true
    | (r : raw) :: tl -> (
        match hull_of r.payload.merged with None -> start tl | Some b0 -> walk b0 tl)
  and walk b0 tl =
    let d = Array.length b0.Rect.lo in
    d <= 62
    &&
    let full = (1 lsl d) - 1 in
    let rec go (prev : Rect.t) asc desc = function
      | [] -> true
      | (r : raw) :: tl -> (
          match hull_of r.payload.merged with
          | None -> go prev asc desc tl
          | Some (b : Rect.t) ->
              let asc = ref asc and desc = ref desc in
              for k = 0 to d - 1 do
                let bit = 1 lsl k in
                if prev.hi.(k) >= b.lo.(k) then asc := !asc land lnot bit;
                if b.hi.(k) >= prev.lo.(k) then desc := !desc land lnot bit
              done;
              !asc lor !desc <> 0 && go b !asc !desc tl)
    in
    go b0 full full tl
  in
  start rs

let rec sorted_rect_list = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> compare_rect a b <= 0 && sorted_rect_list rest

(* One transfer for a run of batches sharing a (tensor, src, dst) triple,
   in input order. A batch alone reuses its pre-merged payload outright —
   the common case, since the executor merges each fetch plan once and
   shares it across tasks. *)
let xfer_of_batch (r : raw) =
  make_xfer r.payload.tensor r.src r.dst r.link r.payload.merged r.payload.volume

let xfer_of_run = function
  | [] -> invalid_arg "Comm_plan.xfer_of_run: empty run"
  | [ r ] -> xfer_of_batch r
  | (r0 : raw) :: _ as rs ->
      let payload = List.concat_map (fun (r : raw) -> r.payload.merged) rs in
      let rects =
        if chain_separated rs then
          if sorted_rect_list payload then payload else List.sort compare_rect payload
        else merge_rects payload
      in
      let volume = List.fold_left (fun acc (r : raw) -> acc + r.payload.volume) 0 rs in
      make_xfer r0.payload.tensor r0.src r0.dst r0.link rects volume

(* The runs of one bucket per destination, in destination order, each
   in input order. The bucket holds its batches newest first, so a stable
   sort by descending destination followed by consing restores both. *)
let runs_by_dst stored =
  List.stable_sort (fun (a : raw) b -> icmp b.dst a.dst) stored
  |> List.fold_left
       (fun acc (r : raw) ->
         match acc with
         | ((r' : raw) :: _ as run) :: rest when r'.dst = r.dst -> (r :: run) :: rest
         | _ -> [ r ] :: acc)
       []

let coalesce raws =
  (* Bucket by (tensor, src) packed into one int: tensors are numbered in
     first-seen order (consecutive batches usually name the same one, so
     that costs a physical compare) and src takes 22 bits. Within a
     bucket, each destination's run keeps its batches in input order. *)
  let ids = ref [] and last = ref "" and last_id = ref 0 in
  let buckets = Ints.Tbl.create 64 in
  List.iter
    (fun (r : raw) ->
      let tn = r.payload.tensor in
      if tn != !last then begin
        (match List.assoc_opt tn !ids with
        | Some id -> last_id := id
        | None ->
            last_id := List.length !ids;
            ids := (tn, !last_id) :: !ids);
        last := tn
      end;
      let key = (!last_id lsl 22) lor r.src in
      match Ints.Tbl.find buckets key with
      | rs -> Ints.Tbl.replace buckets key (r :: rs)
      | exception Not_found -> Ints.Tbl.add buckets key [ r ])
    raws;
  (* Buckets in (tensor name, src) order: sort keys whose tensor number
     is replaced by the name's rank, then map them back. *)
  let n = List.length !ids in
  let rank = Array.make n 0 and id_of_rank = Array.make n 0 in
  List.iteri
    (fun k (_, id) ->
      rank.(id) <- k;
      id_of_rank.(k) <- id)
    (List.sort compare !ids);
  let swap ids key = (ids.(key lsr 22) lsl 22) lor (key land ((1 lsl 22) - 1)) in
  let keys =
    Ints.Tbl.fold (fun key _ acc -> swap rank key :: acc) buckets []
    |> List.sort icmp |> List.map (swap id_of_rank)
  in
  (* One transfer per (tensor, src, dst) run, newest first. The full
     order also ranks payloads before destinations, which a broadcast
     (one shared payload, ascending destinations) already satisfies:
     sort only when some source sends different payloads out of
     destination order. *)
  let rev =
    List.fold_left
      (fun acc key ->
        List.fold_left
          (fun acc run -> xfer_of_run run :: acc)
          acc
          (runs_by_dst (Ints.Tbl.find buckets key)))
      [] keys
  in
  let rec descending = function
    | a :: (b :: _ as rest) -> compare_xfer b a <= 0 && descending rest
    | _ -> true
  in
  if descending rev then List.rev rev else List.stable_sort compare_xfer rev

let uncoalesced raws =
  List.concat_map
    (fun (r : raw) ->
      List.map
        (fun p -> make_xfer r.payload.tensor r.src r.dst r.link [ p ] (Rect.volume p))
        r.payload.pieces)
    raws
  |> List.stable_sort compare_xfer

let describe = function
  | [] -> "(empty)"
  | [ r ] -> Rect.to_string r
  | r :: rest ->
      Printf.sprintf "%s (+%d fragments)" (Rect.to_string r) (List.length rest)
