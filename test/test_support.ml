module Ints = Distal_support.Ints
module Rng = Distal_support.Rng

let check_int = Alcotest.(check int)

let test_prod () =
  check_int "prod empty" 1 (Ints.prod [||]);
  check_int "prod" 24 (Ints.prod [| 2; 3; 4 |])

let test_ceil_div () =
  check_int "exact" 4 (Ints.ceil_div 12 3);
  check_int "round up" 5 (Ints.ceil_div 13 3);
  check_int "one" 1 (Ints.ceil_div 1 100);
  check_int "zero" 0 (Ints.ceil_div 0 3)

let test_strides () =
  Alcotest.(check (array int)) "row major" [| 12; 4; 1 |]
    (Ints.row_major_strides [| 2; 3; 4 |])

let test_linearize_roundtrip () =
  let dims = [| 3; 4; 5 |] in
  for i = 0 to Ints.prod dims - 1 do
    check_int "roundtrip" i (Ints.linearize ~dims (Ints.delinearize ~dims i))
  done

let test_iter_box_order () =
  let seen = ref [] in
  Ints.iter_box [| 2; 2 |] (fun c -> seen := Array.to_list c :: !seen);
  Alcotest.(check (list (list int)))
    "row-major order"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !seen)

let test_take_drop () =
  Alcotest.(check (array int)) "take" [| 1; 2 |] (Ints.take 2 [| 1; 2; 3 |]);
  Alcotest.(check (array int)) "drop" [| 3 |] (Ints.drop 2 [| 1; 2; 3 |])

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 1.0 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 5 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  Alcotest.(check bool) "streams differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_table () =
  let t = Distal_support.Table.create ~header:[ "x"; "yy" ] in
  Distal_support.Table.add_row t [ "1"; "2" ];
  Alcotest.(check string) "rendering" "  x  yy\n  -  --\n  1  2 \n"
    (Distal_support.Table.to_string t)

let qcheck_linearize =
  QCheck.Test.make ~name:"linearize/delinearize roundtrip" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 4) (int_range 1 6)) small_nat)
    (fun (dims_l, seed) ->
      let dims = Array.of_list dims_l in
      let n = Ints.prod dims in
      let i = seed mod n in
      Ints.linearize ~dims (Ints.delinearize ~dims i) = i)

(* The one-pass fill must reproduce the stream of [Rng.float] calls bit
   for bit, and leave the generator where those calls would. *)
let test_rng_fill_float () =
  List.iter
    (fun n ->
      let a = Rng.create 11 and b = Rng.create 11 in
      let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      Rng.fill_float a 2.5 buf;
      for i = 0 to n - 1 do
        Alcotest.(check int64)
          (Printf.sprintf "draw %d of %d" i n)
          (Int64.bits_of_float (Rng.float b 2.5))
          (Int64.bits_of_float buf.{i})
      done;
      Alcotest.(check int64) "generator advanced past the fill" (Rng.next_int64 b)
        (Rng.next_int64 a))
    [ 0; 1; 7; 1000 ]

(* A pooled fill splits the array into chunks that start from the state
   their first draw has in the serial loop. Lengths straddle the chunk
   boundaries, so a chunk that starts a draw off shows here; the oracle
   cannot see it, since its reference draws through the same fill. *)
let test_rng_pooled_fill () =
  let module Pool = Distal_support.Pool in
  let c = Rng.fill_chunk in
  List.iter
    (fun size ->
      let pool = Pool.create size in
      List.iter
        (fun n ->
          let a = Rng.create 11 and b = Rng.create 11 in
          let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
          Rng.fill_float ~pool a 2.5 buf;
          let first_bad = ref (-1) in
          for i = 0 to n - 1 do
            let want = Int64.bits_of_float (Rng.float b 2.5) in
            if want <> Int64.bits_of_float buf.{i} && !first_bad < 0 then first_bad := i
          done;
          let label = Printf.sprintf "pool %d, length %d" size n in
          Alcotest.(check int) (label ^ ": first differing draw") (-1) !first_bad;
          Alcotest.(check int64) (label ^ ": generator advanced past the fill")
            (Rng.next_int64 b) (Rng.next_int64 a))
        [ 0; 1; c - 1; c; c + 1; (3 * c) + 5 ];
      Pool.shutdown pool)
    [ 1; 2; 3 ]

(* Seeded inputs hold the same bytes whatever pool fills them: B and C
   span three chunks each. *)
let test_random_inputs_pool_sizes () =
  let module Api = Distal.Api in
  let module Dense = Distal_tensor.Dense in
  let n = 300 in
  let p =
    Api.problem_exn ~machine:(Api.Machine.grid [| 2; 2 |]) ~stmt:"A(i,j) = B(i,j) + C(i,j)"
      ~tensors:
        (List.map (fun t -> Api.tensor t [| n; n |] ~dist:"[x,y] -> [x,y]") [ "A"; "B"; "C" ])
      ()
  in
  let plan =
    Api.compile_script_exn p ~schedule:"distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2])"
  in
  let bytes domains =
    List.map
      (fun (name, d) -> (name, Bytes.to_string (Dense.to_le_bytes d)))
      (Api.random_inputs ~domains ~seed:7 plan)
  in
  let one = bytes 1 in
  Alcotest.(check (list string)) "tensors drawn" [ "B"; "C" ] (List.map fst one);
  Alcotest.(check bool) "identical bytes at 1 and 3 domains" true (one = bytes 3)

(* Dense.random fills in one linear pass; it must agree with the
   coordinate walk it replaced (row-major draws through [Dense.init]). *)
let test_dense_random_order () =
  let module Dense = Distal_tensor.Dense in
  List.iter
    (fun shape ->
      let got = Dense.random (Rng.create 5) shape in
      let rng = Rng.create 5 in
      let want = Dense.init shape (fun _ -> Rng.float rng 1.0) in
      Alcotest.(check (list int64))
        (Ints.to_string shape)
        (List.init (Dense.size want) (fun i -> Int64.bits_of_float (Dense.get_lin want i)))
        (List.init (Dense.size got) (fun i -> Int64.bits_of_float (Dense.get_lin got i))))
    [ [||]; [| 0 |]; [| 5 |]; [| 3; 4 |]; [| 2; 3; 4 |] ]

(* A tensor's little-endian image holds every element's bits, 8 bytes
   each in row-major order, special values included. *)
let test_dense_le_bytes () =
  let module Dense = Distal_tensor.Dense in
  let specials = [| 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 4.9e-324; 1.5 |] in
  let d = Dense.create [| 7 |] in
  Array.iteri (Dense.set_lin d) specials;
  Dense.set_lin d 2 (Int64.float_of_bits 0x7FF4000000000001L) (* a NaN payload *);
  let b = Dense.to_le_bytes d in
  Alcotest.(check int) "8 bytes per element" 56 (Bytes.length b);
  Alcotest.(check int64) "little-endian" 0x3FF8000000000000L (Bytes.get_int64_le b 48);
  for i = 0 to 6 do
    Alcotest.(check int64) "bits survive"
      (Int64.bits_of_float (Dense.get_lin d i))
      (Bytes.get_int64_le b (8 * i))
  done

(* The JSON writer copies runs of plain characters in bulk and the
   parser reads them back the same way; any byte string must survive. *)
let qcheck_json_string_roundtrip =
  let module Json = Distal_support.Json in
  QCheck.Test.make ~name:"json string roundtrip" ~count:300 QCheck.string (fun s ->
      Json.parse (Json.to_string (Json.Obj [ (s, Json.List [ Json.String s ]) ]))
      = Ok (Json.Obj [ (s, Json.List [ Json.String s ]) ]))

(* {2 Pool} *)

(* Several domains drive one shared pool at once: whichever caller finds
   it busy runs its items itself, and every caller's items all run. *)
let test_pool_concurrent_callers () =
  let module Pool = Distal_support.Pool in
  let pool = Pool.create 3 in
  let callers = 3 and rounds = 50 and n = 7 in
  let work c =
    let ok = ref true in
    for _ = 1 to rounds do
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for pool ~n (fun ~lane:_ i -> ignore (Atomic.fetch_and_add hits.(i) (1 + c)));
      if Array.exists (fun h -> Atomic.get h <> 1 + c) hits then ok := false
    done;
    !ok
  in
  let results = List.map Domain.join (List.init callers (fun c -> Domain.spawn (fun () -> work c))) in
  Pool.shutdown pool;
  Alcotest.(check (list bool)) "every item of every call ran once"
    (List.init callers (fun _ -> true))
    results

(* Buf_pool: power-of-two classes, exact counters, an exact cap on
   parked bytes, and one owner per block under concurrent use. *)
module Buf_pool = Distal_support.Buf_pool

let pool_stats_list (s : Buf_pool.stats) =
  [ s.allocs; int_of_float s.alloc_bytes; s.hits; int_of_float s.cached_bytes; s.dropped ]

let check_pool_stats what t ~allocs ~alloc_bytes ~hits ~cached_bytes ~dropped =
  Alcotest.(check (list int)) what
    [ allocs; alloc_bytes; hits; cached_bytes; dropped ]
    (pool_stats_list (Buf_pool.stats t))

let test_buf_pool_classes () =
  let t = Buf_pool.create () in
  List.iter
    (fun (n, cap) ->
      let b = Buf_pool.acquire t n in
      check_int (Printf.sprintf "capacity for %d" n) cap (Bigarray.Array1.dim b))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (1000, 1024); (1024, 1024); (1025, 2048) ];
  List.iter
    (fun n ->
      match Buf_pool.acquire t n with
      | _ -> Alcotest.failf "acquired a block of %d elements, past the largest class" n
      | exception Invalid_argument _ -> ())
    [ (1 lsl 47) + 1; max_int ];
  check_int "usable after a refused size" 4 (Bigarray.Array1.dim (Buf_pool.acquire t 3))

let test_buf_pool_counts () =
  let t = Buf_pool.create () in
  check_pool_stats "fresh" t ~allocs:0 ~alloc_bytes:0 ~hits:0 ~cached_bytes:0 ~dropped:0;
  let a = Buf_pool.acquire t 5 and b = Buf_pool.acquire t 8 and c = Buf_pool.acquire t 100 in
  check_pool_stats "three misses" t ~allocs:3 ~alloc_bytes:(8 * (8 + 8 + 128)) ~hits:0
    ~cached_bytes:0 ~dropped:0;
  List.iter (Buf_pool.release t) [ a; b; c ];
  check_pool_stats "all parked" t ~allocs:3 ~alloc_bytes:1152 ~hits:0 ~cached_bytes:1152
    ~dropped:0;
  let d = Buf_pool.acquire t 6 in
  let e = Buf_pool.acquire t 7 in
  Alcotest.(check bool) "distinct blocks of one class" true (d != e);
  Alcotest.(check bool) "both came from the free list" true
    ((d == a || d == b) && (e == a || e == b));
  check_pool_stats "two hits" t ~allocs:3 ~alloc_bytes:1152 ~hits:2 ~cached_bytes:1024
    ~dropped:0;
  let f = Buf_pool.acquire t 8 in
  check_pool_stats "class empty: a miss" t ~allocs:4 ~alloc_bytes:1216 ~hits:2 ~cached_bytes:1024
    ~dropped:0;
  (* A block the pool did not size is never parked. *)
  Buf_pool.release t (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 3);
  check_pool_stats "foreign block dropped" t ~allocs:4 ~alloc_bytes:1216 ~hits:2
    ~cached_bytes:1024 ~dropped:1;
  List.iter (Buf_pool.release t) [ d; e; f ];
  check_pool_stats "all parked again" t ~allocs:4 ~alloc_bytes:1216 ~hits:2 ~cached_bytes:1216
    ~dropped:1

(* Eight 8 MiB blocks fill the 64 MiB cap exactly; the ninth release and
   any later one, however small, is refused. Bigarray blocks are not
   touched, so they cost address space, not resident memory. *)
let test_buf_pool_cap () =
  let t = Buf_pool.create () in
  let n = 1 lsl 20 in
  let block = 8 * n in
  check_int "eight blocks make the cap" Buf_pool.max_bytes (8 * block);
  let bs = List.init 9 (fun _ -> Buf_pool.acquire t n) in
  let small = Buf_pool.acquire t 1 in
  List.iteri
    (fun i b ->
      Buf_pool.release t b;
      let s = Buf_pool.stats t in
      if s.cached_bytes > float_of_int Buf_pool.max_bytes then
        Alcotest.failf "%.0f bytes parked after %d releases" s.cached_bytes (i + 1))
    bs;
  Buf_pool.release t small;
  check_pool_stats "cap reached" t ~allocs:10 ~alloc_bytes:((9 * block) + 8) ~hits:0
    ~cached_bytes:Buf_pool.max_bytes ~dropped:2;
  ignore (Buf_pool.acquire t n);
  Buf_pool.release t (Buf_pool.acquire t 1);
  check_pool_stats "room for one small block" t ~allocs:11 ~alloc_bytes:((9 * block) + 16)
    ~hits:1 ~cached_bytes:(Buf_pool.max_bytes - block + 8) ~dropped:2

(* Four domains take and return blocks at once, from four classes. Each
   writes its own tag into every block it holds and checks the tags
   before handing the blocks back: a block handed to two holders at once
   loses a tag. Every block is returned, so the counters must balance
   exactly: one hit or alloc per acquisition, every allocated byte
   parked. *)
let test_buf_pool_concurrent () =
  let t = Buf_pool.create () in
  let domains = 4 and rounds = 10_000 and ready = Atomic.make 0 in
  let work id =
    let rng = Random.State.make [| id |] in
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let ok = ref true and taken = ref 0 in
    for round = 1 to rounds do
      let tag = float_of_int ((id * 1_000_000) + round) in
      let held = List.init (1 + Random.State.int rng 4) (fun _ -> 1 + Random.State.int rng 8) in
      taken := !taken + List.length held;
      let bs = List.map (fun n -> (n, Buf_pool.acquire t n)) held in
      List.iter (fun (n, b) -> Bigarray.Array1.fill (Bigarray.Array1.sub b 0 n) tag) bs;
      Domain.cpu_relax ();
      List.iter
        (fun (n, b) ->
          for j = 0 to n - 1 do
            if Bigarray.Array1.get b j <> tag then ok := false
          done;
          Buf_pool.release t b)
        bs
    done;
    (!ok, !taken)
  in
  let results =
    List.map Domain.join (List.init domains (fun id -> Domain.spawn (fun () -> work id)))
  in
  Alcotest.(check (list bool)) "no block had two holders" (List.init domains (fun _ -> true))
    (List.map fst results);
  let s = Buf_pool.stats t in
  check_int "one hit or alloc per acquisition" (List.fold_left (fun acc (_, n) -> acc + n) 0 results)
    (s.hits + s.allocs);
  check_int "nothing dropped" 0 s.dropped;
  Alcotest.(check (float 0.0)) "every block parked" s.alloc_bytes s.cached_bytes;
  Alcotest.(check bool) "blocks were reused" true (s.hits > s.allocs)

(* Env: every DISTAL_* knob goes through one parser that rejects
   malformed values loudly instead of silently falling back. *)
let test_env_parsing () =
  let module Env = Distal_support.Env in
  let v = "DISTAL_TEST_ENV_VAR" in
  let restore = Option.value (Sys.getenv_opt v) ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv v restore)
    (fun () ->
      Unix.putenv v "  42 ";
      Alcotest.(check (option int)) "int trims" (Some 42) (Env.int_var v);
      Alcotest.(check (option int)) "positive" (Some 42) (Env.positive_int_var v);
      Unix.putenv v "";
      Alcotest.(check (option int)) "empty means unset" None (Env.int_var v);
      Unix.putenv v "   ";
      Alcotest.(check (option int)) "blank means unset" None (Env.int_var v);
      Unix.putenv v "-3";
      Alcotest.(check (option int)) "negative int" (Some (-3)) (Env.int_var v);
      (match Env.positive_int_var v with
      | _ -> Alcotest.fail "positive_int_var accepted -3"
      | exception Invalid_argument _ -> ());
      Unix.putenv v "1.5e-3";
      Alcotest.(check (option (float 0.0))) "float" (Some 1.5e-3) (Env.float_var v);
      Unix.putenv v "nan";
      (match Env.float_var v with
      | _ -> Alcotest.fail "float_var accepted nan"
      | exception Invalid_argument _ -> ());
      Unix.putenv v "zero";
      match Env.int_var v with
      | _ -> Alcotest.fail "int_var accepted a word"
      | exception Invalid_argument e ->
          if not (Astring_contains.contains e "DISTAL_TEST_ENV_VAR") then
            Alcotest.failf "error does not name the variable: %s" e)

let suites =
  [
    ( "support",
      [
        Alcotest.test_case "prod" `Quick test_prod;
        Alcotest.test_case "ceil_div" `Quick test_ceil_div;
        Alcotest.test_case "strides" `Quick test_strides;
        Alcotest.test_case "linearize roundtrip" `Quick test_linearize_roundtrip;
        Alcotest.test_case "iter_box order" `Quick test_iter_box_order;
        Alcotest.test_case "take/drop" `Quick test_take_drop;
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng float range" `Quick test_rng_float_range;
        Alcotest.test_case "rng int range" `Quick test_rng_int_range;
        Alcotest.test_case "rng split" `Quick test_rng_split_independent;
        Alcotest.test_case "table" `Quick test_table;
        Alcotest.test_case "DISTAL_* env parsing" `Quick test_env_parsing;
        QCheck_alcotest.to_alcotest qcheck_linearize;
        Alcotest.test_case "rng fill_float = float stream" `Quick test_rng_fill_float;
        Alcotest.test_case "rng pooled fill = float stream" `Quick test_rng_pooled_fill;
        Alcotest.test_case "random inputs across pool sizes" `Quick
          test_random_inputs_pool_sizes;
        Alcotest.test_case "dense random row-major" `Quick test_dense_random_order;
        Alcotest.test_case "dense little-endian bytes" `Quick test_dense_le_bytes;
        QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip;
        Alcotest.test_case "pool concurrent callers" `Quick test_pool_concurrent_callers;
        Alcotest.test_case "buf pool classes" `Quick test_buf_pool_classes;
        Alcotest.test_case "buf pool counts" `Quick test_buf_pool_counts;
        Alcotest.test_case "buf pool cap" `Quick test_buf_pool_cap;
        Alcotest.test_case "buf pool concurrent" `Quick test_buf_pool_concurrent;
      ] );
  ]
