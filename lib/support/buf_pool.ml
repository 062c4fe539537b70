(* Size-classed pool of float64 bigarray buffers.

   The executor's run phase (lib/runtime/exec) takes one block per output
   instance of a plan, and the serving session a block per seeded input
   and replayed output; allocating those fresh on every run is what made
   allocation-heavy runs fight the OCaml 5 shared major GC (and, for
   Bigarray payloads, malloc). This pool keeps the backing blocks alive
   across runs:

   - capacities are rounded up to powers of two, so a buffer freed by a
     fragment of one shape is reusable by any fragment whose volume lands
     in the same class — the fragmentation-proof policy of classic slab
     allocators;

   - one set of free lists sits behind the pool's own mutex. Callers take
     and return blocks outside their parallel loops (a plan run takes all
     of its blocks before its launch points run and returns them after
     the merge), so the lock is taken a few times per run, never per
     leaf.

   The pool hands out raw [Bigarray.Array1] blocks (this library sits
   below [Distal_tensor]); callers wrap them into tensor views. Blocks
   live outside the OCaml heap, so parked buffers cost address space and
   RSS but no GC work; [max_bytes] (64 MiB) caps the total bytes parked —
   a release that would exceed the cap drops the buffer to the GC instead
   of parking it. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* 2^0 .. 2^47 element classes: class [c] holds blocks of exactly [2^c]
   elements. 2^47 * 8 bytes is far beyond any addressable tensor. *)
let nclasses = 48

type stats = {
  allocs : int;  (** fresh bigarray allocations since [create] *)
  alloc_bytes : float;  (** bytes of those allocations *)
  hits : int;  (** acquisitions served from a free list *)
  cached_bytes : float;  (** bytes currently parked in free lists *)
  dropped : int;  (** releases discarded: past the byte cap, or not a class's size *)
}

(* Every field is read and written under [m]. *)
type t = {
  m : Mutex.t;
  free : buf list array;  (* per class *)
  mutable cached : int;
  mutable allocs : int;
  mutable alloc_bytes : int;
  mutable hits : int;
  mutable dropped : int;
}

let max_bytes = 64 * 1024 * 1024

let create () =
  { m = Mutex.create (); free = Array.make nclasses []; cached = 0; allocs = 0; alloc_bytes = 0;
    hits = 0; dropped = 0 }

(* Smallest class whose capacity [2^c] holds [n] elements, or
   [nclasses] when none does. *)
let class_of n =
  let c = ref 0 in
  while !c < nclasses && 1 lsl !c < n do
    incr c
  done;
  !c

let class_bytes c = 8 * (1 lsl c)

let acquire t n =
  let c = class_of (max 1 n) in
  if c >= nclasses then invalid_arg (Printf.sprintf "Buf_pool.acquire: %d elements" n);
  Mutex.lock t.m;
  match t.free.(c) with
  | b :: rest ->
      t.free.(c) <- rest;
      t.cached <- t.cached - class_bytes c;
      t.hits <- t.hits + 1;
      Mutex.unlock t.m;
      b
  | [] ->
      t.allocs <- t.allocs + 1;
      t.alloc_bytes <- t.alloc_bytes + class_bytes c;
      Mutex.unlock t.m;
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (1 lsl c)

let release t b =
  let n = Bigarray.Array1.dim b in
  let c = class_of n in
  Mutex.lock t.m;
  (* Only blocks the pool itself sized (exact class capacities) are
     parked; anything else would lie about its capacity on reuse. *)
  if c = nclasses || 1 lsl c <> n || t.cached + class_bytes c > max_bytes then
    t.dropped <- t.dropped + 1
  else begin
    t.free.(c) <- b :: t.free.(c);
    t.cached <- t.cached + class_bytes c
  end;
  Mutex.unlock t.m

let stats t =
  Mutex.protect t.m (fun () ->
      { allocs = t.allocs; alloc_bytes = float_of_int t.alloc_bytes; hits = t.hits;
        cached_bytes = float_of_int t.cached; dropped = t.dropped })
