(* The host domain pool behind Full-mode replay: every item runs once on
   a lane that names one domain, item exceptions propagate after the
   claimed items finish, and DISTAL_NUM_DOMAINS sizes the default pool.
   That replay is byte-identical at every pool size is the differential
   oracle's business (test_oracle). *)

module Pool = Distal_support.Pool

(* Runs [n] items on [pool]; fails unless each ran exactly once, on a
   lane in [0, size) that stayed on one domain for the whole job. *)
let check_items pool n =
  let size = Pool.size pool in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let lane_dom = Array.init size (fun _ -> Atomic.make (-1)) in
  let bad_lane = Atomic.make false in
  Pool.parallel_for pool ~n (fun ~lane i ->
      Atomic.incr hits.(i);
      if lane < 0 || lane >= size then Atomic.set bad_lane true
      else
        let d = (Domain.self () :> int) in
        if not (Atomic.compare_and_set lane_dom.(lane) (-1) d || Atomic.get lane_dom.(lane) = d)
        then Atomic.set bad_lane true);
  let label = Printf.sprintf "size %d, n %d" size n in
  Alcotest.(check (array int)) (label ^ ": every item once") (Array.make n 1)
    (Array.map Atomic.get hits);
  Alcotest.(check bool) (label ^ ": lanes in range, one domain each") false (Atomic.get bad_lane)

let test_pool_items () =
  for size = 1 to 4 do
    let pool = Pool.create size in
    List.iter (check_items pool) [ 0; 1; size - 1; size; (10 * size) + 3 ];
    Pool.shutdown pool
  done

let test_pool_exception () =
  let pool = Pool.create 3 in
  let started = Atomic.make 0 and finished = Atomic.make 0 in
  (match
     Pool.parallel_for pool ~n:30 (fun ~lane:_ i ->
         Atomic.incr started;
         if i = 1 then begin
           Atomic.incr finished;
           failwith "boom"
         end;
         Unix.sleepf 0.001;
         Atomic.incr finished)
   with
  | () -> Alcotest.fail "expected the item's exception to propagate"
  | exception Failure m ->
      Alcotest.(check string) "message" "boom" m;
      Alcotest.(check int) "every claimed item finished first" (Atomic.get started)
        (Atomic.get finished));
  (* The pool survives a failed job, and survives an explicit shutdown
     (workers respawn on the next parallel job). *)
  check_items pool 7;
  Pool.shutdown pool;
  check_items pool 7;
  Pool.shutdown pool

(* A call from inside an item finds the pool owned and runs serially;
   the stats count it, and count only the outer items as worker-run
   candidates. *)
let test_pool_stats () =
  let pool = Pool.create 2 in
  Pool.parallel_for pool ~n:4 (fun ~lane:_ i ->
      if i = 0 then Pool.parallel_for pool ~n:3 (fun ~lane _ -> ignore lane));
  let s = Pool.stats pool in
  Pool.shutdown pool;
  Alcotest.(check int) "jobs" 2 s.Pool.jobs;
  Alcotest.(check int) "items" 7 s.Pool.items;
  Alcotest.(check int) "busy fallbacks" 1 s.Pool.busy_fallbacks;
  if s.Pool.worker_items < 0 || s.Pool.worker_items > 4 then
    Alcotest.failf "worker items %d outside [0, 4]" s.Pool.worker_items

let test_default_size () =
  let old = Option.value (Sys.getenv_opt "DISTAL_NUM_DOMAINS") ~default:"" in
  let restore () = Unix.putenv "DISTAL_NUM_DOMAINS" old in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "DISTAL_NUM_DOMAINS" "5";
      Alcotest.(check int) "env override" 5 (Pool.default_size ());
      Unix.putenv "DISTAL_NUM_DOMAINS" "500";
      Alcotest.(check int) "clamped to 64" 64 (Pool.default_size ());
      Unix.putenv "DISTAL_NUM_DOMAINS" "";
      if Pool.default_size () < 1 then Alcotest.fail "empty means unset";
      Unix.putenv "DISTAL_NUM_DOMAINS" "zero";
      match Pool.default_size () with
      | _ -> Alcotest.fail "expected Invalid_argument on a non-integer"
      | exception Invalid_argument _ -> ())

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool runs every lane" `Quick test_pool_items;
        Alcotest.test_case "pool re-raises lane exceptions" `Quick test_pool_exception;
        Alcotest.test_case "pool stats" `Quick test_pool_stats;
        Alcotest.test_case "DISTAL_NUM_DOMAINS parsing" `Quick test_default_size;
      ] );
  ]
