(* A mutex-protected LRU cache with hit/miss/eviction counters.

   This is the substrate of the serving layer's plan and result caches
   (lib/serve): lookups promote to most-recently-used, inserts beyond
   capacity evict the least-recently-used entry, and every operation is
   serialized by an internal mutex so sessions can be driven concurrently
   from the domains of {!Pool} without external locking. A weighted
   cache also bounds the total weight of its values: inserts evict from
   the LRU end until both the entry count and the total weight fit.

   Recency is a doubly-linked list threaded through the entries; the
   hashtable maps keys to their list node, so find/put/remove are O(1).
   [find_or_add] holds the mutex across the compute function, which makes
   the computation single-flight: two domains racing on the same missing
   key compute it once. Compute functions must therefore be quick (plan
   compilation is) and must never re-enter the same cache. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable weight : int;
  mutable prev : ('k, 'v) node option;  (* towards MRU *)
  mutable next : ('k, 'v) node option;  (* towards LRU *)
}

type ('k, 'v) t = {
  capacity : int;
  max_weight : int;
  weigh : 'v -> int;
  mutable total : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  m : Mutex.t;
  mutable head : ('k, 'v) node option;  (* MRU *)
  mutable tail : ('k, 'v) node option;  (* LRU *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create_weighted ~capacity ~max_weight ~weight =
  if capacity < 0 then invalid_arg "Lru.create: capacity must be >= 0";
  {
    capacity;
    max_weight;
    weigh = (fun v -> max 0 (weight v));
    total = 0;
    table = Hashtbl.create (max 16 capacity);
    m = Mutex.create ();
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let create ~capacity = create_weighted ~capacity ~max_weight:max_int ~weight:(fun _ -> 0)
let capacity t = t.capacity

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
      Mutex.unlock t.m;
      v
  | exception e ->
      Mutex.unlock t.m;
      raise e

(* {2 List surgery — caller holds the mutex} *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let promote t n =
  (* Compare the node itself: [t.head != Some n] would allocate a fresh
     [Some] block and always be physically unequal, making the fast path
     dead and every MRU hit pay an unlink/re-push. *)
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.total <- t.total - n.weight

(* Evict from the LRU end until the count and the weight both fit; the
   evicted bindings, least recently used first. An entry heavier than
   [max_weight] on its own ends up evicted too. *)
let shrink t =
  let rec go acc =
    match t.tail with
    | Some n when Hashtbl.length t.table > t.capacity || t.total > t.max_weight ->
        drop t n;
        t.evictions <- t.evictions + 1;
        go ((n.key, n.value) :: acc)
    | _ -> List.rev acc
  in
  go []

let insert t key value =
  (* Caller holds the mutex; key known absent. *)
  if t.capacity = 0 then []
  else begin
    let n = { key; value; weight = t.weigh value; prev = None; next = None } in
    Hashtbl.replace t.table key n;
    t.total <- t.total + n.weight;
    push_front t n;
    shrink t
  end

(* {2 Public operations} *)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
          promote t n;
          t.hits <- t.hits + 1;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          None)

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

let put t key value =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
          let w = t.weigh value in
          t.total <- t.total - n.weight + w;
          n.value <- value;
          n.weight <- w;
          promote t n;
          shrink t
      | None -> insert t key value)

let find_or_add t key compute =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
          promote t n;
          t.hits <- t.hits + 1;
          Ok (n.value, `Hit)
      | None -> (
          t.misses <- t.misses + 1;
          match compute () with
          | Error _ as e -> e
          | Ok v ->
              let evicted = insert t key v in
              Ok (v, `Miss evicted)))

let remove t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> false
      | Some n ->
          drop t n;
          true)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      t.total <- 0)

let length t = locked t (fun () -> Hashtbl.length t.table)
let weight t = locked t (fun () -> t.total)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)

let keys_mru t =
  locked t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some n -> go (n.key :: acc) n.next
      in
      go [] t.head)
