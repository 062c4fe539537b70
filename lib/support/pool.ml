(* A reusable pool of OCaml 5 domains for data-parallel sections.

   Workers are spawned lazily on first use and then parked on a condition
   variable between jobs, so repeated [run] calls (one per executed plan)
   pay no spawn cost. The caller participates as lane 0; workers take
   lanes 1..n-1. Exceptions raised by any lane are re-raised in the
   caller after every lane has finished (first one wins).

   A pool runs one job at a time. A [run] that finds the pool busy —
   another domain's job in flight, or a call from inside a lane body —
   runs its lanes one after another in the caller instead. Lanes are
   independent by contract, so the result is the same; only the
   parallelism is lost. Two callers must never share the job slot: each
   would overwrite the other's job. *)

type t = {
  size : int;
  m : Mutex.t;
  work : Condition.t;
  donec : Condition.t;
  mutable epoch : int;
  mutable job : int -> unit;
  mutable lanes : int;  (* lanes participating in the current epoch *)
  mutable pending : int;  (* workers still running the current epoch *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
  mutable stop : bool;
  mutable busy : bool;  (* a multi-lane job owns the workers *)
  mutable workers : unit Domain.t list;  (* spawned on first multi-lane run *)
}

let max_domains = 64

let default_size () =
  match Env.positive_int_var "DISTAL_NUM_DOMAINS" with
  | Some n -> min n max_domains
  | None -> min max_domains (Domain.recommended_domain_count ())

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  {
    size;
    m = Mutex.create ();
    work = Condition.create ();
    donec = Condition.create ();
    epoch = 0;
    job = ignore;
    lanes = 0;
    pending = 0;
    failed = None;
    stop = false;
    busy = false;
    workers = [];
  }

let size t = t.size

let record_failure t e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.lock t.m;
  if t.failed = None then t.failed <- Some (e, bt);
  Mutex.unlock t.m

let worker t slot epoch0 =
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
      let f = t.job and lanes = t.lanes in
      let mine = slot < lanes in
      Mutex.unlock t.m;
      if mine then (try f slot with e -> record_failure t e);
      Mutex.lock t.m;
      if mine then begin
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.donec
      end;
      loop ()
    end
  in
  loop ()

let ensure_started t =
  if t.workers = [] && t.size > 1 then begin
    (* Capture the epoch before spawning: a worker must not mistake the
       last finished job for fresh work, nor skip the next one. Only the
       caller advances [epoch], so reading it here is race-free. *)
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
    (* Re-arm so a later [run] can respawn workers. *)
    t.stop <- false
  end

let acquire t =
  Mutex.lock t.m;
  let free = not t.busy in
  if free then t.busy <- true;
  Mutex.unlock t.m;
  free

let run t ~lanes f =
  let lanes = max 1 (min lanes t.size) in
  if lanes = 1 then f 0
  else if not (acquire t) then
    for lane = 0 to lanes - 1 do
      f lane
    done
  else begin
    ensure_started t;
    Mutex.lock t.m;
    t.job <- f;
    t.lanes <- lanes;
    t.pending <- lanes - 1;
    t.failed <- None;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    (try f 0 with e -> record_failure t e);
    Mutex.lock t.m;
    while t.pending > 0 do
      Condition.wait t.donec t.m
    done;
    let fl = t.failed in
    t.failed <- None;
    t.job <- ignore;
    t.busy <- false;
    Mutex.unlock t.m;
    match fl with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
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
