(* Golden modeled output. Every number the simulator models — each
   [Stats] field, the copy trace, the profile timeline and event stream,
   and (on the small cases) the Full-mode output replayed from the
   recorded data operations — is pinned to the values recorded before the
   simulator's task walk was rewritten around integer slots. Floats are
   compared by their bits, at pool sizes 1 and 4, so any change to the
   walk that moves a modeled number by one ulp fails here. *)

module Api = Distal.Api
module Machine = Api.Machine
module Dense = Api.Dense
module Exec = Api.Exec
module Stats = Api.Stats
module Rect = Distal_tensor.Rect
module Fault = Distal_fault.Fault
module Profile = Distal_obs.Profile
module Chrome_trace = Distal_obs.Chrome_trace
module Cp = Distal_obs.Critical_path
module M = Distal_algorithms.Matmul

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let md5 s = Digest.to_hex (Digest.string s)

let stats_line (s : Stats.t) =
  Printf.sprintf "time=%s flops=%s intra=%s inter=%s msgs=%d peak=%s oom=%b tasks=%d steps=%d"
    (bits s.time) (bits s.flops) (bits s.bytes_intra) (bits s.bytes_inter) s.messages
    (bits s.peak_mem) s.oom s.tasks s.steps

let trace_text trace =
  String.concat "\n"
    (List.map
       (fun (e : Exec.trace_event) ->
         Printf.sprintf "%d %s %s %s %s %s" e.step e.tensor (Rect.to_string e.piece)
           (Distal_support.Ints.to_string e.src)
           (Distal_support.Ints.to_string e.dst)
           (bits e.bytes))
       trace)

let timeline_text (tl : Cp.timeline) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%d %s %s %s %s\n" tl.nprocs (bits tl.overhead) (bits tl.reduction)
    (bits tl.recovery) (bits tl.total);
  List.iter
    (fun (s : Cp.step) ->
      Printf.bprintf b "%d %s %s %s %d %s:" s.index (bits s.start) (bits s.cost)
        (bits s.bytes) s.messages (bits s.fabric);
      List.iter
        (fun (sl : Cp.slot) ->
          Printf.bprintf b " %d/%s/%s/%s" sl.proc (bits sl.compute) (bits sl.comm)
            (bits sl.busy))
        s.slots;
      Buffer.add_char b '\n')
    tl.steps;
  Buffer.contents b

(* One line per observation; a mismatch prints the whole line so a
   legitimate re-recording is a copy-paste. *)
let model_fingerprint ?faults ~domains plan =
  let profile = Profile.create () in
  let trace = ref [] in
  let r =
    Api.run_exn ~mode:Exec.Model ?faults ~domains ~trace ~profile plan ~data:[]
  in
  let timeline =
    match Profile.runs profile with
    | [ run ] -> (
        match run.Profile.timeline with
        | Some tl -> timeline_text tl
        | None -> Alcotest.fail "profiled run has no timeline")
    | _ -> Alcotest.fail "expected exactly one profiled run"
  in
  Printf.sprintf "%s trace=%s timeline=%s events=%s" (stats_line r.Exec.stats)
    (md5 (trace_text !trace)) (md5 timeline)
    (md5 (Chrome_trace.to_string (Profile.events profile)))

let full_fingerprint ?faults ~domains plan =
  let data = Api.random_inputs ~seed:7 plan in
  let r = Api.run_exn ~mode:Exec.Full ?faults ~domains plan ~data in
  match r.Exec.output with
  | None -> Alcotest.fail "Full run without output"
  | Some out ->
      let b = Buffer.create (8 * Dense.size out) in
      for i = 0 to Dense.size out - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float (Dense.get_lin out i))
      done;
      Printf.sprintf "%s output=%s" (stats_line r.Exec.stats) (md5 (Buffer.contents b))

(* {2 Cases} *)

let grid2 g = Machine.grid [| g; g |]
let alg = function Ok (a : M.t) -> a.M.plan | Error e -> Alcotest.fail e

let cyclic_gemm () =
  let p =
    Api.problem_exn ~machine:(grid2 4) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 32; 32 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 32; 32 |] ~dist:"[x,y] -> [x%1,y%1]";
          Api.tensor "C" [| 32; 32 |] ~dist:"[x,y] -> [x%1,y%1]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [4,4]); split(k, ko, ki, 4);\n\
       reorder(ko, ii, ji, ki); communicate(A, jo); communicate({B,C}, ko)"

let cyclic_ttv () =
  let p =
    Api.problem_exn ~virtual_grid:[| 8 |] ~machine:(Machine.grid [| 4 |])
      ~stmt:"A(i,j) = B(i,j,k) * c(k)"
      ~tensors:
        [
          Api.tensor "A" [| 64; 8 |] ~dist:"[x,y] -> [x%1]";
          Api.tensor "B" [| 64; 8; 8 |] ~dist:"[x,y,z] -> [x%1]";
          Api.tensor "c" [| 8 |] ~dist:"[x] -> [*]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:"divide(i, io, ii, 8); distribute(io); communicate({A,B,c}, io)"

let reduction () =
  let p =
    Api.problem_exn ~machine:(Machine.grid [| 4 |]) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| 16; 16 |] ~dist:"[x,y] -> [0]";
          Api.tensor "B" [| 16; 16 |] ~dist:"[x,y] -> [x%2]";
          Api.tensor "C" [| 16; 16 |] ~dist:"[x,y] -> [y%2]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      "divide(k, ko, ki, 4); reorder(ko, i, j, ki); distribute(ko);\n\
       communicate({A,B,C}, ko)"

let self_ref () =
  let p =
    Api.problem_exn ~machine:(grid2 2) ~stmt:"A(i,j) = A(i,j) + B(i,j)"
      ~tensors:
        [
          Api.tensor "A" [| 12; 12 |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| 12; 12 |] ~dist:"[x,y] -> [y,x]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      "distribute_onto({i,j}, {io,jo}, {ii,ji}, [2,2]); communicate({A,B}, jo)"

let faults =
  Fault.plan ~checkpoint:true
    ~kills:[ Fault.kill ~proc:5 ~step:2 () ]
    ~messages:[ Fault.drop ~tensor:"B" ~step:1 () ]
    ()

type case = {
  name : string;
  plan : unit -> Api.plan;
  faults : Fault.t option;
  full : bool;  (* small enough to also replay with data *)
  expect_model : string;
  expect_full : string;
}

let case ?faults ?(full = true) name plan ~model ~full_out =
  { name; plan; faults; full; expect_model = model; expect_full = full_out }

let cases =
  [
    case "summa 4x4" (fun () -> alg (M.summa ~n:64 ~machine:(grid2 4) ()))
      ~model:
        "time=3f38517f2a5a944c flops=4120000000000000 intra=0 inter=4108000000000000 msgs=384 peak=40bc000000000000 oom=false tasks=16 steps=16 trace=ab5311117ad4d5c02ac2cfa6cfb8d898 timeline=ef456151fdf018c2b2c6954cc931f216 events=584608525a5958077bcfd8c43c408c89"
      ~full_out:"time=3f38517f2a5a944c flops=4120000000000000 intra=0 inter=4108000000000000 msgs=384 peak=40bc000000000000 oom=false tasks=16 steps=16 output=d0ad53dbf826c674029eb2994b55a25e";
    case "summa 16x16" ~full:false
      (fun () -> alg (M.summa ~n:256 ~machine:(grid2 16) ()))
      ~model:
        "time=3f656cc55f1c1fd2 flops=4180000000000000 intra=0 inter=416e000000000000 msgs=30720 peak=40bc000000000000 oom=false tasks=256 steps=64 trace=095f543156b907a2c0225eed333aced8 timeline=2bbc2d0fd133d48a10313eddae7f9284 events=1d4bda6291a8a4edc9a10b10094d3daa"
      ~full_out:"";
    case "cannon 4x4" (fun () -> alg (M.cannon ~n:64 ~machine:(grid2 4)))
      ~model:
        "time=3f17c79a44deddf5 flops=4120000000000000 intra=0 inter=4108000000000000 msgs=96 peak=40c4000000000000 oom=false tasks=16 steps=4 trace=aeff8f5c3258309c511bb4d53a945640 timeline=85a394bf608e60ba5c359beb1bc6df6b events=ce77d99dc7b3f91dad30e1bda064c8ce"
      ~full_out:"time=3f17c79a44deddf5 flops=4120000000000000 intra=0 inter=4108000000000000 msgs=96 peak=40c4000000000000 oom=false tasks=16 steps=4 output=ad1ddfa33584009b6927184370688ee9";
    case "cannon 16x16" ~full:false
      (fun () -> alg (M.cannon ~n:256 ~machine:(grid2 16)))
      ~model:
        "time=3f2be60a5968898a flops=4180000000000000 intra=0 inter=416e000000000000 msgs=7680 peak=40c4000000000000 oom=false tasks=256 steps=16 trace=d7e206ccefe78c46c863f62da5ad057e timeline=100e0cbe04dc7cff423fe609b88c048c events=47b38e51cd677263f342c170e503ead9"
      ~full_out:"";
    case "cyclic gemm" cyclic_gemm
      ~model:
        "time=3f6c222c556c7484 flops=40f0000000000000 intra=0 inter=40ee000000000000 msgs=3840 peak=40a0000000000000 oom=false tasks=16 steps=8 trace=684d153bc0936bb610dfafd4ab4aacee timeline=85c4d9fe3e0bf75cb960cdeb7f16ec4f events=3b4ad1b5346f21d7ef2d6af700848a0e"
      ~full_out:"time=3f6c222c556c7484 flops=40f0000000000000 intra=0 inter=40ee000000000000 msgs=3840 peak=40a0000000000000 oom=false tasks=16 steps=8 output=2fd48ed310000245cc27e5c2d833be14";
    case "cyclic ttv virtual grid" cyclic_ttv
      ~model:
        "time=3f21508ed75ff978 flops=40c0000000000000 intra=0 inter=40db000000000000 msgs=24 peak=40cb400000000000 oom=false tasks=8 steps=1 trace=7700f57c2d12b8355952ce9753b1f662 timeline=3a03ca809e284a9791a18d404a15cde1 events=eebc65802c337591960eb28e7e2a1d9b"
      ~full_out:"time=3f21508ed75ff978 flops=40c0000000000000 intra=0 inter=40db000000000000 msgs=24 peak=40cb400000000000 oom=false tasks=8 steps=1 output=970d8362568e254bdec9112d639da138";
    case "distributed reduction" reduction
      ~model:
        "time=3f17cc491072cd26 flops=40c0000000000000 intra=0 inter=40c2000000000000 msgs=27 peak=40b8000000000000 oom=false tasks=4 steps=1 trace=86d4f4543e648411ae9d205187d68e28 timeline=756595cddaae852c2941a7c2df03bbd9 events=47d8f3f4b49fc7c3050b8f664df80f0f"
      ~full_out:"time=3f17cc491072cd26 flops=40c0000000000000 intra=0 inter=40c2000000000000 msgs=27 peak=40b8000000000000 oom=false tasks=4 steps=1 output=b018083f889a922f38e6e166b56d5a12";
    case "self-referencing statement" self_ref
      ~model:
        "time=3f0cd7a7da9a8792 flops=4062000000000000 intra=0 inter=4082000000000000 msgs=2 peak=408b000000000000 oom=false tasks=4 steps=1 trace=296356ca760c7047c29862cd0d08932c timeline=fbb731525a3841d487e4a9fdfe78693d events=579a022e002851fc2fd32a43caa54349"
      ~full_out:"time=3f0cd7a7da9a8792 flops=4062000000000000 intra=0 inter=4082000000000000 msgs=2 peak=408b000000000000 oom=false tasks=4 steps=1 output=c68dad631a07840d59938be925112e69";
    case "summa 4x4 kill checkpoint drop" ~faults
      (fun () -> alg (M.summa ~n:64 ~machine:(grid2 4) ()))
      ~model:
        "time=3f528d58b99af668 flops=4120000000000000 intra=0 inter=4107800000000000 msgs=370 peak=40bc000000000000 oom=false tasks=16 steps=16 trace=5e42c8519c4ccaccb4596f6dde79d13e timeline=9b389853fc182e2639ec225309bd6f96 events=1d52041ad6f6cf6b617578ee3aa773b9"
      ~full_out:"time=3f528d58b99af668 flops=4120000000000000 intra=0 inter=4107800000000000 msgs=370 peak=40bc000000000000 oom=false tasks=16 steps=16 output=d0ad53dbf826c674029eb2994b55a25e";
  ]

let check_case c () =
  let plan = c.plan () in
  List.iter
    (fun domains ->
      let got = model_fingerprint ?faults:c.faults ~domains plan in
      Alcotest.(check string) (Printf.sprintf "model, %d domains" domains) c.expect_model got;
      if c.full then
        let got = full_fingerprint ?faults:c.faults ~domains plan in
        Alcotest.(check string) (Printf.sprintf "full, %d domains" domains) c.expect_full got)
    [ 1; 4 ]

(* {2 The served estimate sweep}

   The Model runs of the served [estimate] workload's three families
   (SUMMA, Cannon and TTV cyclic over i on a virtual grid twice the
   machine), built as the benchmark builds them: 49 sizes (n = 128 to
   512 in steps of 8) on 4x4, 8x8 and 16x16, 441 runs, and the four
   [replay] shapes in Model mode. Their [Stats] bits are digested
   together; the 27 runs at n in {128, 320, 512} were recorded before
   step grouping went by payload id, the whole set before the
   simulation's payloads and footprints moved into flat int tables. *)

let sweep_gemm ?(operands = "[x,y] -> [x,y]") ~n ~g schedule =
  let p =
    Api.problem_exn ~machine:(grid2 g) ~stmt:"A(i,j) = B(i,k) * C(k,j)"
      ~tensors:
        [
          Api.tensor "A" [| n; n |] ~dist:"[x,y] -> [x,y]";
          Api.tensor "B" [| n; n |] ~dist:operands;
          Api.tensor "C" [| n; n |] ~dist:operands;
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:(Printf.sprintf "distribute_onto({i,j}, {io,jo}, {ii,ji}, [%d,%d]); %s" g g schedule)

let sweep_ttv ~i ~jk ~procs ~vprocs =
  let p =
    Api.problem_exn ~virtual_grid:[| vprocs |] ~machine:(Machine.grid [| procs |])
      ~stmt:"A(i,j) = B(i,j,k) * c(k)"
      ~tensors:
        [
          Api.tensor "A" [| i; jk |] ~dist:"[x,y] -> [x%1]";
          Api.tensor "B" [| i; jk; jk |] ~dist:"[x,y,z] -> [x%1]";
          Api.tensor "c" [| jk |] ~dist:"[x] -> [*]";
        ]
      ()
  in
  Api.compile_script_exn p
    ~schedule:
      (Printf.sprintf "divide(i, io, ii, %d); distribute(io); communicate({A,B,c}, io)" vprocs)

let summa_schedule n g =
  Printf.sprintf
    "split(k, ko, ki, %d); reorder(ko, ii, ji, ki); communicate(A, jo); \
     communicate({B,C}, ko); substitute({ii,ji,ki}, gemm)"
    (max 1 (Distal_support.Ints.ceil_div n (g * 4)))

let sweep_shape ~family ~n ~g =
  match family with
  | `Summa -> sweep_gemm ~n ~g (summa_schedule n g)
  | `Cannon ->
      sweep_gemm ~n ~g
        (Printf.sprintf
           "divide(k, ko, ki, %d); reorder(ko, ii, ji, ki); rotate(ko, {io,jo}, kos); \
            communicate(A, jo); communicate({B,C}, kos); substitute({ii,ji,ki}, gemm)"
           g)
  | `Ttv -> sweep_ttv ~i:(4 * n) ~jk:16 ~procs:(g * g) ~vprocs:(2 * g * g)

(* The served [replay] workload's shapes: a cyclic GEMM gathering
   per-element pieces, SUMMA, TTV on 4 processors over 128 virtual ones,
   and GEMM with the scalar leaf. *)
let replay_shapes () =
  [
    sweep_gemm ~operands:"[x,y] -> [x%1,y%1]" ~n:64 ~g:4
      "split(k, ko, ki, 8); reorder(ko, ii, ji, ki); communicate(A, jo); \
       communicate({B,C}, ko)";
    sweep_gemm ~n:128 ~g:2 (summa_schedule 128 2);
    sweep_ttv ~i:512 ~jk:32 ~procs:4 ~vprocs:128;
    sweep_gemm ~n:96 ~g:2 "communicate(A, jo); communicate({B,C}, jo)";
  ]

let sweep_families = [ `Summa; `Cannon; `Ttv ]
let sweep_grids = [ 4; 8; 16 ]
let sweep_sizes = List.init 49 (fun k -> 128 + (8 * k))
let estimate_line plan = stats_line (Api.run_exn ~mode:Exec.Model plan ~data:[]).Exec.stats

let test_estimate_sweep () =
  let runs =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun g ->
            List.map (fun n -> (n, estimate_line (sweep_shape ~family ~n ~g))) sweep_sizes)
          sweep_grids)
      sweep_families
  in
  let pinned =
    List.filter_map (fun (n, l) -> if List.mem n [ 128; 320; 512 ] then Some l else None) runs
  in
  Alcotest.(check string)
    "27 estimate runs" "29e5251428c3a978dcfb38b3ed5a241b"
    (md5 (String.concat "\n" pinned));
  let replay = List.map estimate_line (replay_shapes ()) in
  Alcotest.(check string)
    "441 estimate runs and 4 replay shapes" "587eb0ad6762d9fb706dda8025d689f6"
    (md5 (String.concat "\n" (List.map snd runs @ replay)))

(* Every wire message and slot of the profiled runs at n in {128, 320,
   512}, and of the four [replay] shapes: per step, each group's tensor,
   source, rects, fragments, bytes and receivers in order, and each
   slot's processor and busy time. Recorded before the simulation's
   payloads moved into flat int tables. *)
let groups_text (tl : Cp.timeline) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Cp.step) ->
      Printf.bprintf b "step %d\n" s.index;
      List.iter
        (fun (g : Cp.copy) ->
          Printf.bprintf b "%s %d %s %d %s [%s]\n" g.tensor g.src
            (String.concat " " (List.map Rect.to_string g.rects))
            g.fragments (bits g.bytes)
            (String.concat "," (List.map string_of_int (Array.to_list g.receivers))))
        s.copies;
      List.iter (fun (sl : Cp.slot) -> Printf.bprintf b " %d/%s" sl.proc (bits sl.busy)) s.slots;
      Buffer.add_char b '\n')
    tl.steps;
  Buffer.contents b

let test_estimate_groups () =
  let plans =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun g -> List.map (fun n -> sweep_shape ~family ~n ~g) [ 128; 320; 512 ])
          sweep_grids)
      sweep_families
    @ replay_shapes ()
  in
  let texts =
    List.map
      (fun plan ->
        let profile = Profile.create () in
        ignore (Api.run_exn ~mode:Exec.Model ~profile plan ~data:[]);
        match Profile.runs profile with
        | [ { Profile.timeline = Some tl; _ } ] -> md5 (groups_text tl)
        | _ -> Alcotest.fail "expected exactly one profiled run with a timeline")
      plans
  in
  Alcotest.(check string)
    "31 profiled runs" "e57ac9622709885336dacd1bb4d4809b"
    (md5 (String.concat "\n" texts))

(* {2 Redistribution} *)

(* [Exec.redistribute] prices one exchange step. These values were
   recorded while it still carried its own copy of the step pricing.
   Event names are blanked before hashing: the stream is pinned by its
   tracks, times, kinds and attributes, so only a span's or instant's
   label may change. *)
module Cost = Api.Cost_model
module Event = Distal_obs.Event
module Metrics = Distal_obs.Metrics

let redistribute_fingerprint machine cost ~shape ~src ~dst =
  let profile = Profile.create () in
  let parse = Api.Distnot.parse_exn in
  let s = Exec.redistribute ~profile machine cost ~shape ~src:(parse src) ~dst:(parse dst) in
  let run, tl =
    match Profile.runs profile with
    | [ ({ Profile.timeline = Some tl; _ } as run) ] -> (run, tl)
    | _ -> Alcotest.fail "expected exactly one run with a timeline"
  in
  let fabric = List.fold_left (fun acc (st : Cp.step) -> acc +. st.fabric) 0.0 tl.steps in
  let ratio =
    match Metrics.value run.Profile.metrics "exec.coalesce_ratio" with
    | Some r -> bits r
    | None -> "none"
  in
  let unnamed = List.map (fun (e : Event.t) -> { e with name = "" }) (Profile.events profile) in
  Printf.sprintf "%s ratio=%s fabric=%s timeline=%s events=%s" (stats_line s) ratio
    (bits fabric) (md5 (timeline_text tl))
    (md5 (Chrome_trace.to_string unnamed))

let redistribute_cases =
  let gpu4 = Machine.grid ~kind:Machine.Gpu ~mem_per_proc:16e9 [| 4 |] in
  let racked = Machine.grid ~node_factors:[| 2; 2 |] [| 4; 4 |] in
  [
    ( "rows to cols 2x2",
      (fun () ->
        redistribute_fingerprint (grid2 2) Cost.cpu_distal ~shape:[| 8; 8 |]
          ~src:"[x,y] -> [x,*]" ~dst:"[x,y] -> [*,y]"),
      "time=3ee4feaf4a3f49ee flops=0 intra=0 inter=4080000000000000 msgs=4 peak=0 oom=false tasks=0 steps=1 ratio=3ff0000000000000 fabric=0 timeline=1851f14f86afe92b3bb6341446e244d1 events=6c5f28b94744b79272a782cad62a13f6" );
    ( "broadcast",
      (fun () ->
        redistribute_fingerprint (Machine.grid [| 4 |]) Cost.cpu_distal ~shape:[| 8 |]
          ~src:"[x] -> [0]" ~dst:"[x] -> [*]"),
      "time=3ee4faf33165dd50 flops=0 intra=0 inter=4068000000000000 msgs=3 peak=0 oom=false tasks=0 steps=1 ratio=3ff0000000000000 fabric=0 timeline=39207a321c15de3d99fc77296916c485 events=c6e68db51137bc88a78149746c27b9dc" );
    ( "half-duplex gpu scatter",
      (fun () ->
        redistribute_fingerprint gpu4 Cost.gpu_distal ~shape:[| 64 |] ~src:"[x] -> [0]"
          ~dst:"[x] -> [x]"),
      "time=3eefa2e06d1584fb flops=0 intra=0 inter=4078000000000000 msgs=3 peak=0 oom=false tasks=0 steps=1 ratio=3ff0000000000000 fabric=0 timeline=58ff9acee9621e00a4d7c3b2f5735021 events=d81436960cfb241eed67275422f6b98e" );
    ( "ctf matricize all-to-all",
      (fun () ->
        redistribute_fingerprint (Machine.grid [| 4 |]) Cost.cpu_ctf ~shape:[| 16; 12; 8 |]
          ~src:"[x,y,z] -> [x]" ~dst:"[x,y,z] -> [y]"),
      "time=3eefaad81990064c flops=0 intra=0 inter=40c2000000000000 msgs=12 peak=0 oom=false tasks=0 steps=1 ratio=3ff0000000000000 fabric=0 timeline=d06ae653736969de52474870c4e3598a events=83da1c67c65763aec256fe76b0fdc88e" );
    ( "cyclic to blocks",
      (fun () ->
        redistribute_fingerprint (grid2 2) Cost.cpu_distal ~shape:[| 16; 16 |]
          ~src:"[x,y] -> [x%1,y%1]" ~dst:"[x,y] -> [x,y]"),
      "time=3ef476f91ce2a242 flops=0 intra=0 inter=4098000000000000 msgs=12 peak=0 oom=false tasks=0 steps=1 ratio=4030000000000000 fabric=0 timeline=df74846618b2344c103c0ffde034ad07 events=91bbc48fc9e82f12cd1dbdbce46a129b" );
    ( "two racks",
      (fun () ->
        redistribute_fingerprint racked
          { Cost.cpu_distal with rack_nodes = 2 }
          ~shape:[| 16; 16 |] ~src:"[x,y] -> [x,*]" ~dst:"[x,y] -> [y,x]"),
      "time=3ee719d8a652d99a flops=0 intra=4080000000000000 inter=4090000000000000 msgs=12 peak=0 oom=false tasks=0 steps=1 ratio=3ff0000000000000 fabric=3e27e7056f83f2e5 timeline=d46fd1830f792ff51835ebf0b357e085 events=28feb1c3df3b56fcaf4bcd637767bcb5" );
  ]

let check_redistribute (_, run, expect) () =
  Alcotest.(check string) "redistribute" expect (run ())

let suites =
  [
    ( "golden modeled stats",
      List.map (fun c -> Alcotest.test_case c.name `Quick (check_case c)) cases
      @ List.map
          (fun ((name, _, _) as c) ->
            Alcotest.test_case ("redistribute " ^ name) `Quick (check_redistribute c))
          redistribute_cases
      @ [
          Alcotest.test_case "estimate sweep" `Quick test_estimate_sweep;
          Alcotest.test_case "estimate sweep groups" `Quick test_estimate_groups;
        ] );
  ]
