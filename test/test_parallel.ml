(* The host domain pool behind Full-mode replay: every lane runs, lane
   exceptions propagate, and DISTAL_NUM_DOMAINS sizes the default pool.
   That replay is byte-identical at every pool size is the differential
   oracle's business (test_oracle). *)

module Pool = Distal_support.Pool

let test_pool_lanes () =
  let pool = Pool.create 4 in
  let hits = Array.make 4 0 in
  Pool.run pool ~lanes:4 (fun lane -> hits.(lane) <- hits.(lane) + 1);
  Alcotest.(check (array int)) "every lane ran once" [| 1; 1; 1; 1 |] hits;
  (* Lane counts beyond the pool size are clamped to the pool size. *)
  let hits2 = Array.make 4 0 in
  Pool.run pool ~lanes:10 (fun lane -> hits2.(lane) <- hits2.(lane) + 1);
  Alcotest.(check (array int)) "clamped to pool size" [| 1; 1; 1; 1 |] hits2;
  Pool.shutdown pool

let test_pool_exception () =
  let pool = Pool.create 3 in
  (match Pool.run pool ~lanes:3 (fun lane -> if lane = 1 then failwith "boom") with
  | () -> Alcotest.fail "expected the lane's exception to propagate"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  (* The pool survives a failed job, and survives an explicit shutdown
     (workers respawn on the next multi-lane run). *)
  let hits = Array.make 3 0 in
  Pool.run pool ~lanes:3 (fun lane -> hits.(lane) <- hits.(lane) + 1);
  Alcotest.(check (array int)) "reusable after failure" [| 1; 1; 1 |] hits;
  Pool.shutdown pool;
  Array.fill hits 0 3 0;
  Pool.run pool ~lanes:3 (fun lane -> hits.(lane) <- hits.(lane) + 1);
  Alcotest.(check (array int)) "reusable after shutdown" [| 1; 1; 1 |] hits;
  Pool.shutdown pool

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
        Alcotest.test_case "pool runs every lane" `Quick test_pool_lanes;
        Alcotest.test_case "pool re-raises lane exceptions" `Quick test_pool_exception;
        Alcotest.test_case "DISTAL_NUM_DOMAINS parsing" `Quick test_default_size;
      ] );
  ]
