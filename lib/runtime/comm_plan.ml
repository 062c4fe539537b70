module Ints = Distal_support.Ints
module Rect = Distal_tensor.Rect

type payload = {
  tensor : string;
  pieces : Rect.t list;
  merged : Rect.t list;
  nfrag : int;
  volume : int;
}

type group = {
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

let payload tensor pieces =
  let volume = List.fold_left (fun acc r -> acc + Rect.volume r) 0 pieces in
  { tensor; pieces; merged = merge_rects pieces; nfrag = List.length pieces; volume }

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
    | (p : payload) :: tl -> ( match hull_of p.merged with None -> start tl | Some b0 -> walk b0 tl)
  and walk b0 tl =
    let d = Array.length b0.Rect.lo in
    d <= 62
    &&
    let full = (1 lsl d) - 1 in
    let rec go (prev : Rect.t) asc desc = function
      | [] -> true
      | (p : payload) :: tl -> (
          match hull_of p.merged with
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

(* A step's fetches in charge order: the payloads, and beside them their
   (tensor, src, dst) triples packed into one int each — 22 bits each for
   src and dst, the tensor number above. Appending touches two arrays,
   whatever the step's size; the triples are keyed when the step is
   priced, in one pass that stays in cache. *)
type table = {
  mutable loads : payload array;
  mutable ends : int array;
  mutable n : int;
  mutable frags : int;
}

let bits = 22
let mask = (1 lsl bits) - 1
let table () = { loads = [||]; ends = [||]; n = 0; frags = 0 }
let fragments tab = tab.frags

(* Fills grown tables: a constant, so a large table is made without the
   minor collection [Array.make] runs when its initial value is young. *)
let no_payload = { tensor = ""; pieces = []; merged = []; nfrag = 0; volume = 0 }

let add tab ~t ~src ~dst (p : payload) =
  if (src lor dst) lsr bits <> 0 then invalid_arg "Comm_plan.add: processor index out of range";
  if tab.n = Array.length tab.ends then begin
    let cap = Int.max 16 (2 * tab.n) in
    let loads = Array.make cap no_payload and ends = Array.make cap 0 in
    Array.blit tab.loads 0 loads 0 tab.n;
    Array.blit tab.ends 0 ends 0 tab.n;
    tab.loads <- loads;
    tab.ends <- ends
  end;
  tab.loads.(tab.n) <- p;
  tab.ends.(tab.n) <- (((t lsl bits) lor src) lsl bits) lor dst;
  tab.n <- tab.n + 1;
  tab.frags <- tab.frags + p.nfrag

(* [groups]' working arrays, one set per domain, grown as needed and
   kept for the domain's life: the fetch indices bucketed, the bucket
   bounds, where a bucket's messages start among the fetches, the unions
   of multi-payload messages, and the messages' order. Allocating them
   per step costs more than the grouping: at a few hundred fetches they
   land on the major heap. *)
type scratch = {
  mutable order : int array;
  mutable count : int array;
  mutable start : int array;
  mutable unions : Rect.t list array;
  mutable by_msg : int array;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      { order = [||]; count = [||]; start = [||]; unions = [||]; by_msg = [||] })

(* Sort [a.(lo .. hi-1)] by [cmp], in place, unless it is in order
   already; equal elements keep their order. *)
let sort_range cmp a lo hi =
  let rec ordered i = i >= hi || (cmp a.(i - 1) a.(i) <= 0 && ordered (i + 1)) in
  if not (ordered (lo + 1)) then begin
    let sub = Array.sub a lo (hi - lo) in
    Array.stable_sort cmp sub;
    Array.blit sub 0 a lo (hi - lo)
  end

(* One pass in canonical order: the fetches are bucketed by (tensor name,
   src) with a counting sort, and each bucket is sorted by destination,
   charge order kept, so a triple's payloads sit together. A bucket's
   messages land in the scratch arrays in destination order and are
   sorted by (payload, destination) only when they are not in that order
   already, as a broadcast's are: they share one payload value. Runs of
   one payload become groups; buckets and runs are visited backwards and
   consed, so groups come out in (tensor, src, payload) order. *)
let groups tab =
  let n = tab.n and ends = tab.ends and loads = tab.loads in
  let tensor i = ends.(i) lsr (2 * bits) and src i = (ends.(i) lsr bits) land mask in
  let nt = ref 0 and nsrc = ref 0 in
  for i = 0 to n - 1 do
    nt := Int.max !nt (tensor i + 1);
    nsrc := Int.max !nsrc (src i + 1)
  done;
  let names = Array.make !nt "" in
  for i = 0 to n - 1 do
    names.(tensor i) <- loads.(i).tensor
  done;
  let by_name = Array.init !nt Fun.id and rank = Array.make !nt 0 in
  sort_range (fun a b -> String.compare names.(a) names.(b)) by_name 0 !nt;
  Array.iteri (fun r t -> rank.(t) <- r) by_name;
  let nb = !nt * !nsrc and sc = Domain.DLS.get scratch in
  if Array.length sc.order < n then begin
    sc.order <- Array.make (2 * n) 0;
    sc.start <- Array.make ((2 * n) + 1) 0;
    sc.unions <- Array.make (2 * n) [];
    sc.by_msg <- Array.make (2 * n) 0
  end;
  if Array.length sc.count < nb + 1 then sc.count <- Array.make (2 * (nb + 1)) 0;
  let order = sc.order and count = sc.count and bucket i = (rank.(tensor i) * !nsrc) + src i in
  let start = sc.start and unions = sc.unions and by_msg = sc.by_msg in
  Array.fill count 0 (nb + 1) 0;
  for i = 0 to n - 1 do
    let b = bucket i in
    count.(b + 1) <- count.(b + 1) + 1
  done;
  for b = 1 to nb do
    count.(b) <- count.(b) + count.(b - 1)
  done;
  (* Bucket [b] fills [count.(b) .. count.(b+1)-1], leaving [count.(b)]
     at its end. *)
  for i = 0 to n - 1 do
    let b = bucket i in
    order.(count.(b)) <- i;
    count.(b) <- count.(b) + 1
  done;
  let dst i = ends.(i) land mask and out = ref [] in
  (* Message [m] of a bucket sends the payloads of fetches
     [order.(start.(m)) .. order.(start.(m+1) - 1)], one destination's:
     its one payload, or their union. *)
  let single m = start.(m + 1) = start.(m) + 1 in
  let rects_of m = if single m then loads.(order.(start.(m))).merged else unions.(m) in
  let dst_of m = dst order.(start.(m)) in
  let by_payload x y =
    let c = compare_rects (rects_of x) (rects_of y) in
    if c <> 0 then c else icmp (dst_of x) (dst_of y)
  in
  for b = nb - 1 downto 0 do
    let lo = if b = 0 then 0 else count.(b - 1) and hi = count.(b) in
    if hi > lo then begin
      sort_range (fun x y -> icmp (dst x) (dst y)) order lo hi;
      let t = tensor order.(lo) and s = src order.(lo) and nm = ref 0 in
      start.(0) <- lo;
      for k = lo + 1 to hi do
        if k = hi || dst order.(k) <> dst order.(k - 1) then begin
          let first = start.(!nm) in
          (* Several payloads on one triple: their union, newest first. *)
          if k > first + 1 then
            unions.(!nm) <- union (List.init (k - first) (fun i -> loads.(order.(k - 1 - i))));
          by_msg.(!nm) <- !nm;
          incr nm;
          start.(!nm) <- k
        end
      done;
      sort_range by_payload by_msg 0 !nm;
      (* Runs of one payload, last first; a group's receivers ascend. *)
      let e = ref !nm in
      while !e > 0 do
        let last = by_msg.(!e - 1) and a = ref (!e - 1) in
        let rects = rects_of last in
        while !a > 0 && compare_rects (rects_of by_msg.(!a - 1)) rects = 0 do
          decr a
        done;
        let first = !a and volume = ref 0 in
        let receivers = Array.make (!e - first) 0 in
        for r = 0 to !e - first - 1 do
          receivers.(r) <- dst_of by_msg.(first + r)
        done;
        for i = start.(last) to start.(last + 1) - 1 do
          volume := !volume + loads.(order.(i)).volume
        done;
        let bytes = 8.0 *. float_of_int !volume and fragments = List.length rects in
        out := { tensor = names.(t); rects; fragments; src = s; bytes; receivers } :: !out;
        e := first
      done;
      for m = 0 to !nm - 1 do
        if not (single m) then unions.(m) <- []
      done
    end
  done;
  !out

let describe = function
  | [] -> "(empty)"
  | [ r ] -> Rect.to_string r
  | r :: rest ->
      Printf.sprintf "%s (+%d fragments)" (Rect.to_string r) (List.length rest)
