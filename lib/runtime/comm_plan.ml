module Rect = Distal_tensor.Rect

type payload = {
  id : int;
  pieces : Rect.t list;
  merged : Rect.t list;
  hull : Rect.t option;
  nfrag : int;
  volume : int;
}

type group = Distal_obs.Critical_path.copy = {
  tensor : string;
  rects : Rect.t list;
  fragments : int;
  src : int;
  bytes : float;
  receivers : int array;
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

let hull_of = function
  | [] -> None
  | (r : Rect.t) :: rest -> Some (List.fold_left Rect.hull r rest)

(* No rect of a payload with bounding box [a] can ever merge with one of a
   payload with bounding box [b] when some dimension leaves a strict gap
   between the boxes: merging requires abutting coordinates ([hi = lo],
   bounds are exclusive) in one dimension and equal bounds in every
   other, and a gap rules both out — including transitively, since a
   merged rect stays inside its payload's box.

   A strict gap along one {e fixed} dimension chains: if consecutive
   boxes in the list keep a strict gap along dimension [k], every pair
   of boxes does. So one linear pass suffices — track, per dimension, a
   bit for "still strictly ascending with gaps" and one for descending,
   and accept when any dimension survives. Cyclic distributions hit
   this constantly (each task's fetch plan is a distinct stripe of the
   owner's data, discovered in stripe order); anything irregular falls
   back to the full merge, which stays correct, just slower. *)
let chain_separated loads =
  let rec start = function
    | [] -> true
    | (p : payload) :: tl -> ( match p.hull with None -> start tl | Some b0 -> walk b0 tl)
  and walk b0 tl =
    let d = Array.length b0.Rect.lo in
    d <= 62
    &&
    let full = (1 lsl d) - 1 in
    let rec go (prev : Rect.t) asc desc = function
      | [] -> true
      | (p : payload) :: tl -> (
          match p.hull with
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
  start loads

let rec sorted cmp = function
  | a :: (b :: _ as rest) -> cmp a b <= 0 && sorted cmp rest
  | _ -> true

(* The one message of a triple that received several payloads (newest
   first): their union, in canonical order. *)
let union loads =
  let rects = List.concat_map (fun (p : payload) -> p.merged) loads in
  if chain_separated loads then
    if sorted compare_rect rects then rects else List.sort compare_rect rects
  else merge_rects rects

(* A simulation's fetches and the payloads they carry. Each step keeps
   its fetches in an int array of its own, two ints a fetch: the
   payload's id (its index in [loads]) and its (tensor, src, dst) triple
   packed into one int — 22 bits each for src and dst, the tensor number
   above. *)
type table = {
  names : string array;
  rank : int array;  (* per tensor number, its place in name order *)
  mutable loads : payload array;
  mutable nloads : int;
  steps : int array array;
  used : int array;  (* per step, the ints its array holds *)
  mutable frags : int;
  mutable nsrc : int;  (* above every src added *)
}

let bits = 22
let mask = (1 lsl bits) - 1

let table ~names ~steps =
  let by_name = Array.init (Array.length names) Fun.id in
  Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) by_name;
  let rank = Array.make (Array.length names) 0 in
  Array.iteri (fun r t -> rank.(t) <- r) by_name;
  { names; rank; loads = [||]; nloads = 0; steps = Array.make steps [||];
    used = Array.make steps 0; frags = 0; nsrc = 0 }

let fragments tab = tab.frags

(* Arrays grow by appending them to themselves: [Array.append] copies
   without the write barrier of [Array.blit] into the major heap, or the
   minor collection of [Array.make] filling a large array with a young
   value. *)
let grown a ~empty = if Array.length a = 0 then empty () else Array.append a a

let payload tab pieces =
  let volume = List.fold_left (fun acc r -> acc + Rect.volume r) 0 pieces in
  let merged = merge_rects pieces in
  let p =
    { id = tab.nloads; pieces; merged; hull = hull_of merged; nfrag = List.length pieces;
      volume }
  in
  if tab.nloads = Array.length tab.loads then
    tab.loads <- grown tab.loads ~empty:(fun () -> Array.make 16 p);
  tab.loads.(tab.nloads) <- p;
  tab.nloads <- tab.nloads + 1;
  p

let add tab ~step ~t ~src ~dst (p : payload) =
  if (src lor dst) lsr bits <> 0 then invalid_arg "Comm_plan.add: processor index out of range";
  if t < 0 || t >= Array.length tab.names || step < 0 || step >= Array.length tab.steps then
    invalid_arg "Comm_plan.add: no such tensor or step";
  if p.id >= tab.nloads || tab.loads.(p.id) != p then invalid_arg "Comm_plan.add: foreign payload";
  let e = tab.used.(step) in
  if e = Array.length tab.steps.(step) then
    tab.steps.(step) <- grown tab.steps.(step) ~empty:(fun () -> Array.make 32 0);
  let a = tab.steps.(step) in
  a.(e) <- p.id;
  a.(e + 1) <- (((t lsl bits) lor src) lsl bits) lor dst;
  tab.used.(step) <- e + 2;
  tab.frags <- tab.frags + p.nfrag;
  if src >= tab.nsrc then tab.nsrc <- src + 1

(* [groups]' working arrays, one set per domain, grown as needed: the
   fetches in bucket order, the bucket bounds, per message of a bucket
   its first fetch, key and union, and the messages' order. Allocated per
   step, they would land on the major heap and cost more than grouping. *)
type scratch = {
  mutable order : int array;
  mutable count : int array;
  mutable start : int array;
  mutable key : int array;
  mutable unions : Rect.t list array;
  mutable by_msg : int array;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      { order = [||]; count = [||]; start = [||]; key = [||]; unions = [||]; by_msg = [||] })

(* Stable-sort [a.(lo .. hi-1)] by [cmp], in place. *)
let sort_range cmp a lo hi =
  let sub = Array.sub a lo (hi - lo) in
  Array.stable_sort cmp sub;
  Array.blit sub 0 a lo (hi - lo)

(* One step in canonical order. Its fetches are bucketed by (tensor
   name, src) with a counting sort, and each bucket is sorted by
   destination, charge order kept, so a triple's payloads sit together:
   one message per destination, carrying its one payload or their union.
   A message's key is its payload's id (a union's is past every id), and
   messages are sorted by (value, destination) comparing keys first: a
   broadcast, whose receivers share one payload, costs int compares
   alone. Runs of one value become groups, visited backwards and consed
   into (tensor, src, payload) order. Orders are checked before they are
   sorted, in loops that read the arrays: a local function is a call. *)
let groups tab ~step =
  let n = if step < 0 || step >= Array.length tab.steps then 0 else tab.used.(step) / 2 in
  let ents = if n = 0 then [||] else tab.steps.(step) and loads = tab.loads and nsrc = tab.nsrc in
  let nb = Array.length tab.names * nsrc and sc = Domain.DLS.get scratch in
  if Array.length sc.order < n then begin
    sc.order <- Array.make (2 * n) 0;
    sc.start <- Array.make ((2 * n) + 1) 0;
    sc.key <- Array.make (2 * n) 0;
    sc.unions <- Array.make (2 * n) [];
    sc.by_msg <- Array.make (2 * n) 0
  end;
  if Array.length sc.count < nb + 1 then sc.count <- Array.make (2 * (nb + 1)) 0;
  let order = sc.order and count = sc.count and start = sc.start and key = sc.key in
  let unions = sc.unions and by_msg = sc.by_msg in
  (* Fetch [k]: payload id [ents.(2k)], triple [ents.(2k+1)]; [order] holds [2k]. *)
  Array.fill count 0 (nb + 1) 0;
  for k = 0 to n - 1 do
    let tri = ents.((2 * k) + 1) in
    let b = (tab.rank.(tri lsr (2 * bits)) * nsrc) + ((tri lsr bits) land mask) in
    count.(b + 1) <- count.(b + 1) + 1
  done;
  for b = 1 to nb do
    count.(b) <- count.(b) + count.(b - 1)
  done;
  (* Bucket [b] fills [count.(b) .. count.(b+1)-1], leaving [count.(b)]
     at its end. *)
  for k = 0 to n - 1 do
    let tri = ents.((2 * k) + 1) in
    let b = (tab.rank.(tri lsr (2 * bits)) * nsrc) + ((tri lsr bits) land mask) in
    order.(count.(b)) <- 2 * k;
    count.(b) <- count.(b) + 1
  done;
  (* Message [m] of a bucket sends the payloads of fetches
     [order.(start.(m)) .. order.(start.(m+1) - 1)], one destination's. *)
  let single m = start.(m + 1) = start.(m) + 1 in
  let rects_of m = if single m then loads.(ents.(order.(start.(m)))).merged else unions.(m) in
  let dst_of m = ents.(order.(start.(m)) + 1) land mask in
  let same x y = key.(x) = key.(y) || compare_rects (rects_of x) (rects_of y) = 0 in
  let by_value x y =
    let c = if key.(x) = key.(y) then 0 else compare_rects (rects_of x) (rects_of y) in
    if c <> 0 then c else icmp (dst_of x) (dst_of y)
  in
  let out = ref [] in
  for b = nb - 1 downto 0 do
    let lo = if b = 0 then 0 else count.(b - 1) and hi = count.(b) in
    if hi > lo then begin
      let sorted = ref true in
      for q = lo + 1 to hi - 1 do
        if ents.(order.(q) + 1) land mask < ents.(order.(q - 1) + 1) land mask then sorted := false
      done;
      if not !sorted then
        sort_range (fun x y -> icmp (ents.(x + 1) land mask) (ents.(y + 1) land mask)) order lo hi;
      let nm = ref 0 and keyed = ref true in
      start.(0) <- lo;
      for q = lo + 1 to hi do
        if q = hi || ents.(order.(q) + 1) land mask <> ents.(order.(q - 1) + 1) land mask then begin
          let m = !nm and first = start.(!nm) in
          (* Several payloads on one triple: their union, newest first. *)
          if q > first + 1 then begin
            unions.(m) <- union (List.init (q - first) (fun i -> loads.(ents.(order.(q - 1 - i)))));
            key.(m) <- tab.nloads + m
          end
          else key.(m) <- ents.(order.(first));
          if m > 0 && key.(m) <> key.(m - 1) then keyed := false;
          by_msg.(m) <- m;
          nm := m + 1;
          start.(m + 1) <- q
        end
      done;
      (* One key: in destination order, the messages are sorted. *)
      if not !keyed then begin
        let rec ordered m = m >= !nm || (by_value (m - 1) m <= 0 && ordered (m + 1)) in
        if not (ordered 1) then sort_range by_value by_msg 0 !nm
      end;
      (* Runs of one value, last first; a group's receivers ascend, and
         its bytes are those of its last receiver's message: the
         payloads of one triple are summed, so a payload fetched twice
         counts twice. *)
      let tri = ents.(order.(lo) + 1) and e = ref !nm in
      while !e > 0 do
        let last = by_msg.(!e - 1) and a = ref (!e - 1) in
        while !a > 0 && same by_msg.(!a - 1) last do decr a done;
        (* A literal is allocated inline; [Array.make] is a C call. *)
        let receivers = if !e - !a = 1 then [| 0 |] else Array.make (!e - !a) 0 in
        for r = 0 to !e - !a - 1 do
          receivers.(r) <- ents.(order.(start.(by_msg.(!a + r))) + 1) land mask
        done;
        let volume = ref 0 in
        for i = start.(last) to start.(last + 1) - 1 do
          volume := !volume + loads.(ents.(order.(i))).volume
        done;
        let rects = rects_of last in
        let bytes = 8.0 *. float_of_int !volume and fragments = List.length rects in
        out :=
          { tensor = tab.names.(tri lsr (2 * bits)); rects; fragments;
            src = (tri lsr bits) land mask; bytes; receivers }
          :: !out;
        e := !a
      done;
      for m = 0 to !nm - 1 do
        if not (single m) then unions.(m) <- []
      done
    end
  done;
  !out
