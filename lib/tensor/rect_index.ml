(* Per-query scratch: visited stamps per tile id. Stamps are monotonic per
   cursor, so one cursor can serve queries against any number of indexes —
   a stale stamp left by another index can never equal a fresh one. *)
type cursor = { mutable seen : int array; mutable stamp : int }

let cursor () = { seen = [||]; stamp = 0 }

type 'a t = {
  entries : (Rect.t * 'a) array;
  dims : int;
  cuts : int array array;  (* per dim: sorted distinct tile boundaries *)
  buckets : int array array;
      (* per dim: every slab's tile ids, ascending, slab after slab *)
  prefix : int array array;  (* per dim: where each slab's ids start *)
}

(* Index of the first element >= x in a sorted array. *)
let lower_bound (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the first element > x in a sorted array. *)
let upper_bound (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The sorted distinct bounds of [entries] along dimension [d], and the
   position of each among them. Tile bounds are coordinates inside a
   tensor, so they usually span a range not much wider than their count:
   mark them in a table over that range ([pos], from [base]), which then
   maps each bound to its position directly. Otherwise sort a copy and
   binary-search ([pos] empty). No intermediate list either way. *)
type cuts = { bounds : int array; pos : int array; base : int }

let position c v = if Array.length c.pos = 0 then lower_bound c.bounds v else c.pos.(v - c.base)

let cuts_along (entries : (Rect.t * _) array) d =
  let n = Array.length entries in
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun ((r : Rect.t), _) ->
      lo := Int.min !lo (Int.min r.lo.(d) r.hi.(d));
      hi := Int.max !hi (Int.max r.lo.(d) r.hi.(d)))
    entries;
  let lo = !lo and hi = !hi in
  if n = 0 || hi - lo > (8 * n) + 64 then begin
    let vals = Array.make (2 * n) 0 in
    Array.iteri
      (fun i ((r : Rect.t), _) ->
        vals.(2 * i) <- r.lo.(d);
        vals.((2 * i) + 1) <- r.hi.(d))
      entries;
    Array.sort Int.compare vals;
    let m = ref 0 in
    Array.iter
      (fun v ->
        if !m = 0 || vals.(!m - 1) <> v then begin
          vals.(!m) <- v;
          incr m
        end)
      vals;
    { bounds = Array.sub vals 0 !m; pos = [||]; base = 0 }
  end
  else begin
    let pos = Array.make (hi - lo + 1) (-1) in
    Array.iter
      (fun ((r : Rect.t), _) ->
        pos.(r.lo.(d) - lo) <- 0;
        pos.(r.hi.(d) - lo) <- 0)
      entries;
    let m = ref 0 in
    for i = 0 to hi - lo do
      if pos.(i) = 0 then begin
        pos.(i) <- !m;
        incr m
      end
    done;
    let bounds = Array.make !m 0 in
    for i = 0 to hi - lo do
      if pos.(i) >= 0 then bounds.(pos.(i)) <- i + lo
    done;
    { bounds; pos; base = lo }
  end

let build entries =
  let n = Array.length entries in
  let dims = if n = 0 then 0 else Rect.dim (fst entries.(0)) in
  let cuts = Array.init dims (cuts_along entries) in
  (* Per dimension, each non-empty tile covers the slab range [a, b);
     count the slabs' populations first, then fill the slabs in one flat
     array in ascending tile-id order. *)
  let slabs d f =
    for id = 0 to n - 1 do
      let r : Rect.t = fst entries.(id) in
      if not (Rect.is_empty r) then
        for s = position cuts.(d) r.lo.(d) to position cuts.(d) r.hi.(d) - 1 do
          f id s
        done
    done
  in
  let built =
    Array.init dims (fun d ->
        let nslabs = Int.max 0 (Array.length cuts.(d).bounds - 1) in
        let start = Array.make (nslabs + 1) 0 in
        slabs d (fun _ s -> start.(s + 1) <- start.(s + 1) + 1);
        for s = 1 to nslabs do
          start.(s) <- start.(s) + start.(s - 1)
        done;
        let ids = Array.make start.(nslabs) 0 and fill = Array.sub start 0 nslabs in
        slabs d (fun id s ->
            ids.(fill.(s)) <- id;
            fill.(s) <- fill.(s) + 1);
        (ids, start))
  in
  let buckets = Array.map fst built and prefix = Array.map snd built in
  { entries; dims; cuts = Array.map (fun c -> c.bounds) cuts; buckets; prefix }

let length t = Array.length t.entries
let tiles t = Array.to_list t.entries

(* Slab range [a, b) of a query interval [lo, hi) along dimension [d];
   [None] when the interval clears the indexed tiles entirely. *)
let slab_range t d lo hi =
  let cuts = t.cuts.(d) in
  let nslabs = Array.length cuts - 1 in
  if hi <= lo || nslabs <= 0 then None
  else
    let b = Int.min nslabs (lower_bound cuts hi) in
    let a = Int.max 0 (upper_bound cuts lo - 1) in
    if a >= b then None else Some (a, b)

let query ~cursor:c t (rect : Rect.t) =
  let n = Array.length t.entries in
  if n = 0 || Rect.is_empty rect then []
  else if t.dims = 0 then
    (* Scalars: every tile intersects. *)
    Array.to_list (Array.map (fun (r, v) -> (Rect.inter rect r, v)) t.entries)
  else begin
    (* Per-dimension candidate slab ranges; pick the most selective
       dimension by total bucket population. *)
    let best = ref None in
    (try
       for d = 0 to t.dims - 1 do
         match slab_range t d rect.lo.(d) rect.hi.(d) with
         | None ->
             best := None;
             raise Exit
         | Some (a, b) ->
             let pop = t.prefix.(d).(b) - t.prefix.(d).(a) in
             (match !best with
             | Some (_, _, _, p) when p <= pop -> ()
             | _ -> best := Some (d, a, b, pop))
       done
     with Exit -> ());
    match !best with
    | None -> []
    | Some (d, a, b, _) ->
        (* Stamp the candidate ids, then sweep the stamped id range in
           ascending order — a sequential scan that restores insertion
           order without sorting the (possibly tens of thousands of)
           candidates. Non-overlapping candidates are rejected with scalar
           compares before allocating the intersection. *)
        if Array.length c.seen < n then begin
          c.seen <- Array.make (max n (2 * Array.length c.seen)) (-1);
          c.stamp <- 0
        end;
        c.stamp <- c.stamp + 1;
        let seen = c.seen and stamp = c.stamp in
        let min_id = ref max_int and max_id = ref (-1) in
        let ids = t.buckets.(d) in
        for k = t.prefix.(d).(a) to t.prefix.(d).(b) - 1 do
          let id = ids.(k) in
          seen.(id) <- stamp;
          if id < !min_id then min_id := id;
          if id > !max_id then max_id := id
        done;
        let overlaps (r : Rect.t) =
          let rec go i =
            i = t.dims
            || (rect.lo.(i) < r.hi.(i) && r.lo.(i) < rect.hi.(i) && go (i + 1))
          in
          go 0
        in
        let acc = ref [] in
        for id = !max_id downto !min_id do
          if seen.(id) = stamp then begin
            let r, v = t.entries.(id) in
            if overlaps r then begin
              let piece = Rect.inter rect r in
              if not (Rect.is_empty piece) then acc := (piece, v) :: !acc
            end
          end
        done;
        !acc
  end
