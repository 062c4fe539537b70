(* A reusable pool of OCaml 5 domains for data-parallel loops.

   Workers are spawned lazily on first use and then parked on a condition
   variable between jobs, so repeated [parallel_for] calls (one per
   executed plan) pay no spawn cost. A job is a counter over [0, n): the
   caller and every worker that wakes while items remain claim indices
   from it with one atomic add each, so the caller never waits for a
   worker that has not started. The caller runs as lane 0; worker [k]
   always runs as lane [k], so per-lane state stays single-owner.

   The caller returns once every item has finished: it waits only for
   items a worker has already claimed. When it returns it swaps the job
   for an empty one, so a worker that wakes later finds nothing to claim.
   After an item raises, the remaining items are claimed and skipped; the
   first exception is re-raised in the caller.

   A pool runs one job at a time. A call that finds the pool busy —
   another domain's job in flight, or a call from inside an item — runs
   its items in order on the caller as lane 0. Items are independent by
   contract, so the result is the same; only the parallelism is lost. *)

type job = {
  f : lane:int -> int -> unit;
  n : int;
  next : int Atomic.t;  (* the next unclaimed index *)
  left : int Atomic.t;  (* items not yet finished *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type stats = { jobs : int; items : int; worker_items : int; busy_fallbacks : int }

type t = {
  size : int;
  m : Mutex.t;
  work : Condition.t;
  donec : Condition.t;
  mutable epoch : int;
  mutable job : job;
  mutable stop : bool;
  mutable busy : bool;  (* a job owns the workers *)
  mutable workers : unit Domain.t list;  (* spawned on first parallel job *)
  jobs : int Atomic.t;
  items : int Atomic.t;
  worker_items : int Atomic.t;
  busy_fallbacks : int Atomic.t;
}

let max_domains = 64

let default_size () =
  match Env.positive_int_var "DISTAL_NUM_DOMAINS" with
  | Some n -> min n max_domains
  | None -> min max_domains (Domain.recommended_domain_count ())

let new_job f n =
  { f; n; next = Atomic.make 0; left = Atomic.make n; failed = Atomic.make None }

let idle = new_job (fun ~lane:_ _ -> ()) 0

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  {
    size;
    m = Mutex.create ();
    work = Condition.create ();
    donec = Condition.create ();
    epoch = 0;
    job = idle;
    stop = false;
    busy = false;
    workers = [];
    jobs = Atomic.make 0;
    items = Atomic.make 0;
    worker_items = Atomic.make 0;
    busy_fallbacks = Atomic.make 0;
  }

let size t = t.size

let stats t =
  {
    jobs = Atomic.get t.jobs;
    items = Atomic.get t.items;
    worker_items = Atomic.get t.worker_items;
    busy_fallbacks = Atomic.get t.busy_fallbacks;
  }

(* Claim and run items of [j] as [lane] until none is left; the number
   this domain ran. The domain that finishes the last item wakes the
   caller. *)
let drain t j ~lane =
  let rec go ran =
    let i = Atomic.fetch_and_add j.next 1 in
    if i >= j.n then ran
    else begin
      (if Option.is_none (Atomic.get j.failed) then
         try j.f ~lane i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set j.failed None (Some (e, bt))));
      if Atomic.fetch_and_add j.left (-1) = 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.donec;
        Mutex.unlock t.m
      end;
      go (ran + 1)
    end
  in
  go 0

let worker t lane epoch0 =
  let last = ref epoch0 in
  Mutex.lock t.m;
  let rec loop () =
    if t.stop then Mutex.unlock t.m
    else if t.epoch = !last then begin
      Condition.wait t.work t.m;
      loop ()
    end
    else begin
      last := t.epoch;
      let j = t.job in
      Mutex.unlock t.m;
      let ran = drain t j ~lane in
      if ran > 0 then ignore (Atomic.fetch_and_add t.worker_items ran);
      Mutex.lock t.m;
      loop ()
    end
  in
  loop ()

let ensure_started t =
  if t.workers = [] && t.size > 1 then begin
    (* Capture the epoch before spawning: a worker must not mistake the
       last finished job for fresh work, nor skip the next one. Only the
       job's owner advances [epoch], so reading it here is race-free. *)
    let epoch0 = t.epoch in
    t.workers <-
      List.init (t.size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1) epoch0))
  end

let shutdown t =
  if t.workers <> [] then begin
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- [];
    (* Re-arm so a later job can respawn workers. *)
    t.stop <- false
  end

let acquire t =
  Mutex.lock t.m;
  let free = not t.busy in
  if free then t.busy <- true;
  Mutex.unlock t.m;
  free

let serial n f =
  for i = 0 to n - 1 do
    f ~lane:0 i
  done

let parallel_for t ~n f =
  if n > 0 then begin
    Atomic.incr t.jobs;
    ignore (Atomic.fetch_and_add t.items n);
    if n = 1 || t.size = 1 then serial n f
    else if not (acquire t) then begin
      Atomic.incr t.busy_fallbacks;
      serial n f
    end
    else begin
      ensure_started t;
      let j = new_job f n in
      Mutex.lock t.m;
      t.job <- j;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      ignore (drain t j ~lane:0);
      Mutex.lock t.m;
      while Atomic.get j.left > 0 do
        Condition.wait t.donec t.m
      done;
      t.job <- idle;
      t.busy <- false;
      Mutex.unlock t.m;
      match Atomic.get j.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* One shared pool per size, shut down at exit so idle worker domains
   never outlive the main domain. *)
let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_m = Mutex.create ()
let exit_hooked = ref false

let get ?size () =
  let n =
    match size with Some n -> max 1 (min n max_domains) | None -> default_size ()
  in
  Mutex.protect pools_m @@ fun () ->
  match Hashtbl.find_opt pools n with
  | Some p -> p
  | None ->
      let p = create n in
      Hashtbl.add pools n p;
      if not !exit_hooked then begin
        exit_hooked := true;
        at_exit (fun () -> Hashtbl.iter (fun _ p -> shutdown p) pools)
      end;
      p

let now () = Unix.gettimeofday ()
