module Rect = Distal_tensor.Rect

type group = Distal_obs.Critical_path.copy = {
  tensor : string;
  rects : Rect.t list;
  fragments : int;
  src : int;
  bytes : float;
  receivers : int array;
}

let icmp (a : int) (b : int) = if a < b then -1 else if a > b then 1 else 0

(* {2 Rect sets in int arrays}

   [n] rects of rank [dims] at offset [o] of an int array take
   [w = 2 * dims] ints each: rect [i]'s [lo.(k)] sits at [o + i*w + 2k]
   and its [hi.(k)] right after it. Read in that order, the ints of two
   rects compare lexicographically in the canonical order (interleaved
   lo, hi). Every function below is a plain loop or a top-level
   recursion over such offsets: a local function is a closure, and a
   call. *)

let rec cmp_from (a : int array) x (b : int array) y i w =
  if i = w then 0
  else
    let c = icmp (Array.unsafe_get a (x + i)) (Array.unsafe_get b (y + i)) in
    if c <> 0 then c else cmp_from a x b y (i + 1) w

(* Lexicographic order on rect sets, the shorter first on a common
   prefix; [0] iff equal. *)
let rec cmp_sets (a : int array) x na (b : int array) y nb w =
  if na = 0 || nb = 0 then icmp na nb
  else
    let c = cmp_from a x b y 0 w in
    if c <> 0 then c else cmp_sets a (x + w) (na - 1) b (y + w) (nb - 1) w

let rec sorted_from (a : int array) x n w =
  n <= 1 || (cmp_from a x a (x + w) 0 w <= 0 && sorted_from a (x + w) (n - 1) w)

(* A merging pass's order along [d]: every other dimension's bounds,
   then [lo.(d)]. *)
let rec cmp_along (a : int array) x y d k dims =
  if k = dims then icmp a.(x + (2 * d)) a.(y + (2 * d))
  else if k = d then cmp_along a x y d (k + 1) dims
  else
    let c = icmp a.(x + (2 * k)) a.(y + (2 * k)) in
    if c <> 0 then c
    else
      let c = icmp a.(x + (2 * k) + 1) a.(y + (2 * k) + 1) in
      if c <> 0 then c else cmp_along a x y d (k + 1) dims

let rec sorted_along (a : int array) x n w d dims =
  n <= 1 || (cmp_along a x (x + w) d 0 dims <= 0 && sorted_along a (x + w) (n - 1) w d dims)

let rec same_but (a : int array) x y d k dims =
  k = dims
  || (k = d || (a.(x + (2 * k)) = a.(y + (2 * k)) && a.(x + (2 * k) + 1) = a.(y + (2 * k) + 1)))
     && same_but a x y d (k + 1) dims

let rec empty_at (a : int array) x k dims =
  k < dims && (a.(x + (2 * k) + 1) = a.(x + (2 * k)) || empty_at a x (k + 1) dims)

(* [Rect.hull] of the rects at [x] and [y], written over [x]. *)
let hull_into (a : int array) x y dims =
  if empty_at a x 0 dims then Array.blit a y a x (2 * dims)
  else if not (empty_at a y 0 dims) then
    for k = 0 to dims - 1 do
      let l = x + (2 * k) in
      if a.(y + (2 * k)) < a.(l) then a.(l) <- a.(y + (2 * k));
      if a.(y + (2 * k) + 1) > a.(l + 1) then a.(l + 1) <- a.(y + (2 * k) + 1)
    done

(* Reorder the [n] rects at [a.(o)] by [cmp] on their offsets, through
   [tmp]. [Array.sort] on the offsets compares the same pairs in the
   same order as it would on the rects themselves, so ties between
   distinct rects land where they always did. *)
let sort_region (a : int array) o n w (tmp : int array) cmp =
  let idx = Array.init n (fun i -> o + (i * w)) in
  Array.sort cmp idx;
  Array.blit a o tmp 0 (n * w);
  Array.iteri (fun i x -> Array.blit tmp (x - o) a (o + (i * w)) w) idx

(* One merging pass along dimension [d], in place: sort so that rects
   identical in every other dimension are consecutive and ordered by
   [lo.(d)], then union neighbours that abut ([prev.hi.(d) = next.lo.(d)]).
   The rects of a batch are disjoint, so abutting is the only way to be
   mergeable. The sort is skipped when the input already has the right
   order (tile discovery order usually does). Returns the new count. *)
(* Sort the [n] rects at [a.(o)] into canonical order, unless they are
   in it already. *)
let canonical (a : int array) o n w (tmp : int array) =
  if not (sorted_from a o n w) then sort_region a o n w tmp (fun x y -> cmp_from a x a y 0 w)

let merge_along (a : int array) o n d dims (tmp : int array) =
  let w = 2 * dims in
  if not (sorted_along a o n w d dims) then
    sort_region a o n w tmp (fun x y -> cmp_along a x y d 0 dims);
  if n <= 1 then n
  else begin
    let out = ref o in
    for i = 1 to n - 1 do
      let r = o + (i * w) in
      if a.(!out + (2 * d) + 1) = a.(r + (2 * d)) && same_but a !out r d 0 dims then
        hull_into a !out r dims
      else begin
        out := !out + w;
        if !out <> r then Array.blit a r a !out w
      end
    done;
    ((!out - o) / w) + 1
  end

let rec merge_fix (a : int array) o n dims (tmp : int array) =
  let m = ref n in
  for d = 0 to dims - 1 do
    m := merge_along a o !m d dims tmp
  done;
  if !m < n then merge_fix a o !m dims tmp else n

(* Union adjacent rects of the set at [a.(o)] to a fixed point, in
   place: sweep every dimension, and repeat while the sweep still
   shrinks the set — merging along one dimension can create alignment
   that enables a merge along another. The final canonical sort is
   usually free: the last sweep leaves the set ordered by (outer dims,
   innermost lo), which coincides with the canonical order for disjoint
   rects. [tmp] holds at least [n] rects. Returns the new count. *)
let merge (a : int array) o n dims (tmp : int array) =
  if n <= 1 then n
  else begin
    let n = merge_fix a o n dims tmp in
    canonical a o n (2 * dims) tmp;
    n
  end

(* Whether no two of the [n] rects at [a.(o)] can ever merge, by a
   sufficient test: some dimension leaves a strict gap between
   consecutive rects. Merging requires abutting coordinates ([hi = lo],
   bounds are exclusive) in one dimension and equal bounds in every
   other, and a gap rules both out. A strict gap along one {e fixed}
   dimension chains: if consecutive rects keep a strict gap along
   dimension [k], every pair of them does. So one linear pass suffices —
   track, per dimension, a bit for "still strictly ascending with gaps"
   and one for descending, and accept when any dimension survives. The
   rects of a cyclic distribution's fetch (each task's piece of an
   owner is a stripe, discovered in stripe order) pass it constantly;
   anything irregular goes to the full merge, which stays correct, just
   slower. *)
let separated (a : int array) o n dims =
  if n <= 1 then true
  else if dims > 62 then false
  else begin
    let w = 2 * dims in
    let asc = ref ((1 lsl dims) - 1) in
    let desc = ref !asc and i = ref 1 in
    while !i < n && !asc lor !desc <> 0 do
      let p = o + ((!i - 1) * w) and b = o + (!i * w) in
      for k = 0 to dims - 1 do
        let bit = 1 lsl k in
        if a.(p + (2 * k) + 1) >= a.(b + (2 * k)) then asc := !asc land lnot bit;
        if a.(b + (2 * k) + 1) >= a.(p + (2 * k)) then desc := !desc land lnot bit
      done;
      incr i
    done;
    !asc lor !desc <> 0
  end

(* The canonical union of the [n] rects at [a.(o)], in place: sorted
   when they are {!separated}, else merged. Returns the new count. *)
let union_at (a : int array) o n dims (tmp : int array) =
  if separated a o n dims then begin
    canonical a o n (2 * dims) tmp;
    n
  end
  else merge a o n dims tmp

let rects_at a o n dims =
  let l = ref [] in
  for i = n - 1 downto 0 do
    l := Rect.of_ints a (o + (i * 2 * dims)) dims :: !l
  done;
  !l

let merge_rects = function
  | ([] | [ _ ]) as rects -> rects
  | r0 :: _ as rects ->
      let dims = Rect.dim r0 and n = List.length rects in
      let a = Array.make (n * 2 * dims) 0 in
      List.iteri (fun i r -> Rect.to_ints a (i * 2 * dims) r) rects;
      rects_at a 0 (merge a 0 n dims (Array.make (n * 2 * dims) 0)) dims

(* {2 The table} *)

(* A simulation's fetches and the payloads they carry. Payload [id]'s
   facts are [meta_w] ints at [meta.(id * meta_w)]: its rank, where its
   pieces start in [co] and how many, where its merged rects start and
   how many, where its hull starts (-1 when it has none) and its volume.
   Merged rects equal to the pieces, and the hull of one merged rect,
   share their ints. Each step keeps its fetches in an int array of its
   own, two ints a fetch: the payload's id and its (tensor, src, dst)
   triple packed into one int — 22 bits each for src and dst, the
   tensor number above. *)
type table = {
  names : string array;
  rank : int array;  (* per tensor number, its place in name order *)
  mutable meta : int array;
  mutable co : int array;
  mutable nco : int;
  mutable nloads : int;
  steps : int array array;
  used : int array;  (* per step, the ints its array holds *)
  mutable frags : int;
  mutable nsrc : int;  (* above every src added *)
  mutable lists : Rect.t list array;  (* per payload, its merged rects once {!copies} built them *)
}

let meta_w = 7
let m_dims = 0
let m_pieces = 1
let m_nfrag = 2
let m_merged = 3
let m_nmerged = 4
let m_hull = 5
let m_volume = 6
let bits = 22
let mask = (1 lsl bits) - 1

(* The payload arrays of the last table {!release}d on this domain: a
   new table takes them, so a warm domain's simulations grow no store.
   Grown per table instead, they would be allocated on the major heap
   at every doubling, at a cost near that of the grouping itself. *)
let spare = Distal_support.Spare.create 1

let table ~names ~steps =
  let by_name = Array.init (Array.length names) Fun.id in
  Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) by_name;
  let rank = Array.make (Array.length names) 0 in
  Array.iteri (fun r t -> rank.(t) <- r) by_name;
  let meta, co = Option.value (Distal_support.Spare.take spare 0) ~default:([||], [||]) in
  { names; rank; meta; co; nco = 0; nloads = 0; steps = Array.make steps [||];
    used = Array.make steps 0; frags = 0; nsrc = 0; lists = [||] }

let release tab =
  Distal_support.Spare.give spare 0 (tab.meta, tab.co);
  tab.meta <- [||];
  tab.co <- [||];
  tab.lists <- [||];
  tab.nloads <- 0

let fragments tab = tab.frags

let room = Distal_support.Ints.room

(* Per-domain working arrays, grown as needed and kept across runs:
   allocated per call, they would land on the major heap and cost more
   than the work. [tmp] is merge and sort space; the rest is
   {!plan}'s. *)
type scratch = {
  mutable tmp : int array;
  mutable order : int array;  (* the step's fetches in bucket order *)
  mutable count : int array;  (* bucket bounds *)
  mutable start : int array;  (* per message of a bucket: its first fetch in [order] *)
  mutable key : int array;  (* its payload id, or past every id for a union *)
  mutable loc : int array;  (* its rects: an offset in [co], or -1 - an offset in [ub] *)
  mutable nrects : int array;
  mutable dims : int array;
  mutable by_msg : int array;  (* the messages' order *)
  mutable ub : int array;  (* the step's unions *)
  mutable nub : int;
  mutable gs : int array;  (* the step's groups, [group_w] ints each *)
  mutable ng : int;
  mutable rcv : int array;  (* their receivers *)
  mutable nrcv : int;
}

type groups = scratch

let scratch =
  Domain.DLS.new_key (fun () ->
      { tmp = [||]; order = [||]; count = [||]; start = [||]; key = [||]; loc = [||];
        nrects = [||]; dims = [||]; by_msg = [||]; ub = [||]; nub = 0; gs = [||]; ng = 0;
        rcv = [||]; nrcv = 0 })

let rec write_pieces co o w acc = function
  | [] -> acc
  | r :: rs ->
      Rect.to_ints co o r;
      write_pieces co (o + w) w (acc + Rect.volume r) rs

let payload tab pieces =
  let dims = match pieces with [] -> 0 | (r : Rect.t) :: _ -> Array.length r.lo in
  let w = 2 * dims and nfrag = List.length pieces in
  tab.co <- room tab.co (tab.nco + (nfrag * 2 * w) + w);
  let co = tab.co and p = tab.nco in
  let volume = write_pieces co p w 0 pieces in
  (* Pieces that cannot merge and come in canonical order are their own
     merged rects. *)
  let m, nm =
    if nfrag <= 1 || (separated co p nfrag dims && sorted_from co p nfrag w) then (p, nfrag)
    else begin
      let sc = Domain.DLS.get scratch in
      sc.tmp <- room sc.tmp (nfrag * w);
      let m = p + (nfrag * w) in
      Array.blit co p co m (nfrag * w);
      let nm = union_at co m nfrag dims sc.tmp in
      if nm = nfrag && cmp_sets co p nfrag co m nm w = 0 then (p, nfrag) else (m, nm)
    end
  in
  tab.nco <- m + (nm * w);
  let h =
    if nm <= 1 then if nm = 0 then -1 else m
    else begin
      let h = tab.nco in
      Array.blit co m co h w;
      for i = 1 to nm - 1 do
        hull_into co h (m + (i * w)) dims
      done;
      tab.nco <- h + w;
      h
    end
  in
  let id = tab.nloads in
  tab.meta <- room tab.meta ((id + 1) * meta_w);
  let mt = tab.meta and b = id * meta_w in
  mt.(b + m_dims) <- dims;
  mt.(b + m_pieces) <- p;
  mt.(b + m_nfrag) <- nfrag;
  mt.(b + m_merged) <- m;
  mt.(b + m_nmerged) <- nm;
  mt.(b + m_hull) <- h;
  mt.(b + m_volume) <- volume;
  tab.nloads <- id + 1;
  id

let volume tab id = tab.meta.((id * meta_w) + m_volume)

let pieces tab id =
  let b = id * meta_w in
  rects_at tab.co tab.meta.(b + m_pieces) tab.meta.(b + m_nfrag) tab.meta.(b + m_dims)

let add tab ~step ~t ~src ~dst id =
  if (src lor dst) lsr bits <> 0 then invalid_arg "Comm_plan.add: processor index out of range";
  if t < 0 || t >= Array.length tab.names || step < 0 || step >= Array.length tab.steps then
    invalid_arg "Comm_plan.add: no such tensor or step";
  if id < 0 || id >= tab.nloads then invalid_arg "Comm_plan.add: no such payload";
  let e = tab.used.(step) in
  tab.steps.(step) <- room tab.steps.(step) (e + 2);
  let a = tab.steps.(step) in
  a.(e) <- id;
  a.(e + 1) <- (((t lsl bits) lor src) lsl bits) lor dst;
  tab.used.(step) <- e + 2;
  tab.frags <- tab.frags + tab.meta.((id * meta_w) + m_nfrag);
  if src >= tab.nsrc then tab.nsrc <- src + 1

(* {2 Grouping} *)

(* Message [m] of a bucket sends the payloads of fetches
   [order.(first .. q-1)], one destination's, several of them: their
   union, in canonical order, appended to [ub]. *)
let union tab sc ents m first q =
  let mt = tab.meta in
  let n = ref 0 and dims = ref 0 and nh = ref 0 in
  for i = first to q - 1 do
    let b = ents.(sc.order.(i)) * meta_w in
    if mt.(b + m_nmerged) > 0 then begin
      dims := mt.(b + m_dims);
      incr nh
    end;
    n := !n + mt.(b + m_nmerged)
  done;
  let w = 2 * !dims and n = !n and o = sc.nub in
  sc.ub <- room sc.ub (o + (n * w));
  sc.tmp <- room sc.tmp (Int.max n !nh * w);
  (* No rect of a payload can merge with one of another when their
     hulls are {!separated} (a merged rect stays inside its payload's
     hull), and each payload's rects are merged already. *)
  let h = ref 0 in
  for i = first to q - 1 do
    let b = ents.(sc.order.(i)) * meta_w in
    if mt.(b + m_hull) >= 0 then begin
      Array.blit tab.co mt.(b + m_hull) sc.tmp (!h * w) w;
      incr h
    end
  done;
  let apart = separated sc.tmp 0 !nh !dims in
  (* Separated payloads go in fetch order, which is usually canonical
     already, and are sorted; the others newest first into the merge. *)
  let ub = sc.ub and pos = ref o in
  for j = first to q - 1 do
    let i = if apart then j else q - 1 + first - j in
    let b = ents.(sc.order.(i)) * meta_w in
    let len = mt.(b + m_nmerged) * w in
    Array.blit tab.co mt.(b + m_merged) ub !pos len;
    pos := !pos + len
  done;
  let n =
    if apart then begin
      canonical ub o n w sc.tmp;
      n
    end
    else merge ub o n !dims sc.tmp
  in
  sc.nub <- o + (n * w);
  sc.loc.(m) <- -1 - o;
  sc.nrects.(m) <- n;
  sc.dims.(m) <- !dims

(* The value order on messages [x] and [y]; [0] iff they carry the same
   rects. *)
let cmp_msgs tab sc x y =
  let lx = sc.loc.(x) and ly = sc.loc.(y) in
  let ax = if lx >= 0 then tab.co else sc.ub and ay = if ly >= 0 then tab.co else sc.ub in
  cmp_sets ax (if lx >= 0 then lx else -1 - lx) sc.nrects.(x) ay
    (if ly >= 0 then ly else -1 - ly) sc.nrects.(y) (2 * sc.dims.(x))

let group_w = 9
let g_src = 0
let g_t = 1
let g_nrects = 2
let g_volume = 3
let g_rcv = 4
let g_nrcv = 5
let g_loc = 6
let g_dims = 7
let g_id = 8

(* Stable-sort [a.(lo .. hi-1)] by [cmp], in place. *)
let sort_range cmp a lo hi =
  let sub = Array.sub a lo (hi - lo) in
  Array.stable_sort cmp sub;
  Array.blit sub 0 a lo (hi - lo)

(* One step in canonical order. Its fetches are bucketed by (tensor
   name, src) with a counting sort, and each bucket is sorted by
   destination, charge order kept, so a triple's payloads sit together:
   one message per destination, carrying its one payload's merged rects
   or their union. A message's key is its payload's id (a union's is
   past every id), and messages are sorted by (value, destination)
   comparing keys first: a broadcast, whose receivers share one payload,
   costs int compares alone. Runs of one value become groups, written
   in (tensor, src, value) order. Orders are checked before they are
   sorted. *)
let plan tab ~step =
  let n = if step < 0 || step >= Array.length tab.steps then 0 else tab.used.(step) / 2 in
  let ents = if n = 0 then [||] else tab.steps.(step) and mt = tab.meta and nsrc = tab.nsrc in
  let nb = Array.length tab.names * nsrc and sc = Domain.DLS.get scratch in
  if Array.length sc.order < n then begin
    sc.order <- Array.make (2 * n) 0;
    sc.start <- Array.make ((2 * n) + 1) 0;
    sc.key <- Array.make (2 * n) 0;
    sc.loc <- Array.make (2 * n) 0;
    sc.nrects <- Array.make (2 * n) 0;
    sc.dims <- Array.make (2 * n) 0;
    sc.by_msg <- Array.make (2 * n) 0;
    sc.rcv <- Array.make (2 * n) 0;
    sc.gs <- Array.make (2 * n * group_w) 0
  end;
  if Array.length sc.count < nb + 1 then sc.count <- Array.make (2 * (nb + 1)) 0;
  sc.nub <- 0;
  sc.ng <- 0;
  sc.nrcv <- 0;
  let order = sc.order and count = sc.count and start = sc.start and key = sc.key in
  let by_msg = sc.by_msg and gs = sc.gs and rcv = sc.rcv in
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
  let dst_of m = ents.(order.(start.(m)) + 1) land mask in
  let by_value x y =
    let c = if key.(x) = key.(y) then 0 else cmp_msgs tab sc x y in
    if c <> 0 then c else icmp (dst_of x) (dst_of y)
  in
  for b = 0 to nb - 1 do
    let lo = if b = 0 then 0 else count.(b - 1) and hi = count.(b) in
    if hi > lo then begin
      let sorted = ref true in
      for q = lo + 1 to hi - 1 do
        if ents.(order.(q) + 1) land mask < ents.(order.(q - 1) + 1) land mask then sorted := false
      done;
      if not !sorted then
        sort_range (fun x y -> icmp (ents.(x + 1) land mask) (ents.(y + 1) land mask)) order lo hi;
      (* Messages: runs of one destination. *)
      let nm = ref 0 and keyed = ref true in
      start.(0) <- lo;
      for q = lo + 1 to hi do
        if q = hi || ents.(order.(q) + 1) land mask <> ents.(order.(q - 1) + 1) land mask then begin
          let m = !nm and first = start.(!nm) in
          if q > first + 1 then begin
            union tab sc ents m first q;
            key.(m) <- tab.nloads + m
          end
          else begin
            let id = ents.(order.(first)) in
            key.(m) <- id;
            sc.loc.(m) <- mt.((id * meta_w) + m_merged);
            sc.nrects.(m) <- mt.((id * meta_w) + m_nmerged);
            sc.dims.(m) <- mt.((id * meta_w) + m_dims)
          end;
          if m > 0 && key.(m) <> key.(m - 1) then keyed := false;
          by_msg.(m) <- m;
          nm := m + 1;
          start.(m + 1) <- q
        end
      done;
      (* One key: in destination order, the messages are sorted. *)
      if not !keyed then begin
        let ordered = ref true in
        for m = 1 to !nm - 1 do
          if by_value (m - 1) m > 0 then ordered := false
        done;
        if not !ordered then sort_range by_value by_msg 0 !nm
      end;
      (* Runs of one value are groups; a group's receivers ascend, and
         its bytes are those of its last receiver's message: the
         payloads of one triple are summed, so a payload fetched twice
         counts twice. *)
      let tri = ents.(order.(lo) + 1) and a = ref 0 in
      while !a < !nm do
        let m0 = by_msg.(!a) and e = ref (!a + 1) in
        while !e < !nm && (key.(by_msg.(!e)) = key.(m0) || cmp_msgs tab sc by_msg.(!e) m0 = 0) do
          incr e
        done;
        let last = by_msg.(!e - 1) and r0 = sc.nrcv in
        for r = !a to !e - 1 do
          rcv.(r0 + r - !a) <- dst_of by_msg.(r)
        done;
        sc.nrcv <- r0 + !e - !a;
        let volume = ref 0 in
        for i = start.(last) to start.(last + 1) - 1 do
          volume := !volume + mt.((ents.(order.(i)) * meta_w) + m_volume)
        done;
        let g = sc.ng * group_w in
        gs.(g + g_src) <- (tri lsr bits) land mask;
        gs.(g + g_t) <- tri lsr (2 * bits);
        gs.(g + g_nrects) <- sc.nrects.(last);
        gs.(g + g_volume) <- !volume;
        gs.(g + g_rcv) <- r0;
        gs.(g + g_nrcv) <- !e - !a;
        gs.(g + g_loc) <- sc.loc.(last);
        gs.(g + g_dims) <- sc.dims.(last);
        gs.(g + g_id) <- key.(last);
        sc.ng <- sc.ng + 1;
        a := !e
      done
    end
  done;
  sc

let count (gs : groups) = gs.ng
let src (gs : groups) g = gs.gs.((g * group_w) + g_src)
let nfrag (gs : groups) g = gs.gs.((g * group_w) + g_nrects)
let volume_of (gs : groups) g = gs.gs.((g * group_w) + g_volume)
let receivers (gs : groups) g = gs.gs.((g * group_w) + g_nrcv)
let receiver (gs : groups) g r = gs.rcv.(gs.gs.((g * group_w) + g_rcv) + r)

(* A profile keeps every step's groups: a payload's rect list is built
   once and shared by every group that sends it alone. *)
let copies tab (gs : groups) =
  if Array.length tab.lists < tab.nloads then begin
    let lists = Array.make (Int.max 64 (2 * tab.nloads)) [] in
    Array.blit tab.lists 0 lists 0 (Array.length tab.lists);
    tab.lists <- lists
  end;
  let out = ref [] in
  for g = gs.ng - 1 downto 0 do
    let b = g * group_w in
    let loc = gs.gs.(b + g_loc) and nr = gs.gs.(b + g_nrects) and dims = gs.gs.(b + g_dims) in
    let rects =
      if loc < 0 then rects_at gs.ub (-1 - loc) nr dims
      else begin
        let id = gs.gs.(b + g_id) in
        match tab.lists.(id) with
        | [] when nr > 0 ->
            let l = rects_at tab.co loc nr dims in
            tab.lists.(id) <- l;
            l
        | l -> l
      end
    in
    out :=
      { tensor = tab.names.(gs.gs.(b + g_t)); rects; fragments = nr; src = src gs g;
        bytes = 8.0 *. float_of_int (volume_of gs g);
        receivers = Array.sub gs.rcv gs.gs.(b + g_rcv) gs.gs.(b + g_nrcv) }
      :: !out
  done;
  !out

