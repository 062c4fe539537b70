(* Size-classed pool of float64 bigarray buffers with single-owner arenas.

   The executor's run phase (lib/runtime/exec) materializes a fragment
   buffer per communicate point per task, and the serving session a block
   per seeded input and replayed output; allocating those fresh on every
   run is what made allocation-heavy lanes fight the OCaml 5 shared major
   GC (and, for Bigarray payloads, malloc) instead of scaling. This pool
   keeps the backing blocks alive across runs:

   - capacities are rounded up to powers of two, so a buffer freed by a
     fragment of one shape is reusable by any fragment whose volume lands
     in the same class — the fragmentation-proof policy of classic slab
     allocators;

   - each arena's free lists have one user at a time (the executor gives
     every launch point its own arena, and a point runs on one domain),
     so acquire/release on the hot path is a list cons with no lock and
     no cross-domain traffic. Because a point always draws from its own
     arena, a warm run allocates nothing whichever domain runs it.

   The pool hands out raw [Bigarray.Array1] blocks (this library sits
   below [Distal_tensor]); callers wrap them into tensor views. Blocks
   live outside the OCaml heap, so parked buffers cost address space and
   RSS but no GC work; [max_bytes] (64 MiB) caps the total bytes parked
   across arenas — a release that would exceed the cap drops the buffer
   to the GC instead of parking it. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* 2^0 .. 2^47 element classes: class [c] holds blocks of exactly [2^c]
   elements. 2^47 * 8 bytes is far beyond any addressable tensor. *)
let nclasses = 48

type stats = {
  allocs : int;  (** fresh bigarray allocations since [create] *)
  alloc_bytes : float;  (** bytes of those allocations *)
  hits : int;  (** acquisitions served from an arena *)
  cached_bytes : float;  (** bytes currently parked in free lists *)
  dropped : int;  (** releases discarded because the byte cap was reached *)
}

type arena = buf list array  (* free lists per class, one user at a time *)

type t = {
  arenas : arena array;
  (* Counters cross domains (arenas release concurrently), so they are
     atomics, not plain ints. [cached] is advisory: the cap check and the
     update are separate steps, so the cap is approximate by design. *)
  cached : int Atomic.t;
  allocs : int Atomic.t;
  alloc_bytes : int Atomic.t;
  hits : int Atomic.t;
  dropped : int Atomic.t;
}

let max_bytes = 64 * 1024 * 1024

let create n =
  if n < 1 then invalid_arg "Buf_pool.create: need at least one arena";
  {
    arenas = Array.init n (fun _ -> Array.make nclasses []);
    cached = Atomic.make 0;
    allocs = Atomic.make 0;
    alloc_bytes = Atomic.make 0;
    hits = Atomic.make 0;
    dropped = Atomic.make 0;
  }

let arena t i =
  if i < 0 || i >= Array.length t.arenas then
    invalid_arg
      (Printf.sprintf "Buf_pool.arena: arena %d outside [0, %d)" i (Array.length t.arenas));
  t.arenas.(i)

(* Smallest class whose capacity [2^c] holds [n] elements. *)
let class_of n =
  let c = ref 0 in
  while 1 lsl !c < n do
    incr c
  done;
  !c

let class_bytes c = 8 * (1 lsl c)

let alloc_class t c =
  Atomic.incr t.allocs;
  ignore (Atomic.fetch_and_add t.alloc_bytes (class_bytes c));
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (1 lsl c)

let acquire t arena n =
  let c = class_of (max 1 n) in
  match arena.(c) with
  | b :: rest ->
      arena.(c) <- rest;
      ignore (Atomic.fetch_and_add t.cached (-class_bytes c));
      Atomic.incr t.hits;
      b
  | [] -> alloc_class t c

let release t arena b =
  let n = Bigarray.Array1.dim b in
  let c = class_of n in
  (* Only blocks the pool itself sized (exact class capacities) are
     parked; anything else would lie about its capacity on reuse. *)
  if 1 lsl c <> n || Atomic.get t.cached + class_bytes c > max_bytes then
    Atomic.incr t.dropped
  else begin
    arena.(c) <- b :: arena.(c);
    ignore (Atomic.fetch_and_add t.cached (class_bytes c))
  end

let stats t =
  {
    allocs = Atomic.get t.allocs;
    alloc_bytes = float_of_int (Atomic.get t.alloc_bytes);
    hits = Atomic.get t.hits;
    cached_bytes = float_of_int (max 0 (Atomic.get t.cached));
    dropped = Atomic.get t.dropped;
  }
