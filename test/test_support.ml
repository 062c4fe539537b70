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
      ] );
  ]
