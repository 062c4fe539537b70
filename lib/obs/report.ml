module Json = Distal_support.Json
module Table = Distal_support.Table
module Cp = Critical_path

let fsec t = Printf.sprintf "%.3g" t

let bytes_human b =
  if b >= 1e9 then Printf.sprintf "%.2f GB" (b /. 1e9)
  else if b >= 1e6 then Printf.sprintf "%.2f MB" (b /. 1e6)
  else if b >= 1e3 then Printf.sprintf "%.2f kB" (b /. 1e3)
  else Printf.sprintf "%.0f B" b

let step_table (tl : Cp.timeline) =
  let table =
    Table.create
      ~header:
        [
          "step"; "cost (s)"; "procs"; "util"; "compute (s)"; "comm (s)"; "moved";
          "msgs"; "bound by";
        ]
  in
  List.iter
    (fun (s : Cp.step) ->
      let node = Cp.step_bottleneck s in
      let util =
        if s.Cp.cost <= 0.0 || tl.Cp.nprocs = 0 then 1.0
        else
          List.fold_left
            (fun acc (sl : Cp.slot) -> acc +. Float.min sl.Cp.busy s.Cp.cost)
            0.0 s.Cp.slots
          /. (s.Cp.cost *. float_of_int tl.Cp.nprocs)
      in
      Table.add_row table
        [
          string_of_int s.Cp.index;
          fsec s.Cp.cost;
          string_of_int (List.length s.Cp.slots);
          Printf.sprintf "%.0f%%" (100.0 *. util);
          fsec node.Cp.compute;
          fsec node.Cp.comm;
          bytes_human s.Cp.bytes;
          string_of_int s.Cp.messages;
          node.Cp.resource;
        ])
    tl.Cp.steps;
  Table.to_string table

let critical_path_summary (cp : Cp.t) =
  let total = cp.Cp.end_time in
  let pct x = if total <= 0.0 then 0.0 else 100.0 *. x /. total in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "critical path: %.6g s end-to-end over %d links; bound by %s\n" total
       (List.length cp.Cp.nodes) cp.Cp.bottleneck);
  Buffer.add_string buf
    (Printf.sprintf
       "  compute %.6g s (%.0f%%)  exposed comm %.6g s (%.0f%%)  launch overhead \
        %.6g s (%.0f%%)  reduction %.6g s (%.0f%%)\n"
       cp.Cp.compute_time (pct cp.Cp.compute_time) cp.Cp.comm_time
       (pct cp.Cp.comm_time) cp.Cp.overhead (pct cp.Cp.overhead) cp.Cp.reduction
       (pct cp.Cp.reduction));
  if cp.Cp.recovery > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf "  fault recovery %.6g s (%.0f%%)\n" cp.Cp.recovery
         (pct cp.Cp.recovery));
  let laziest =
    List.sort (fun (_, a) (_, b) -> compare b a) cp.Cp.slack |> fun l ->
    List.filteri (fun i _ -> i < 3) l
  in
  if laziest <> [] then
    Buffer.add_string buf
      ("  most slack: "
      ^ String.concat ", "
          (List.map
             (fun (p, s) -> Printf.sprintf "proc %d (%.3g s idle)" p s)
             laziest)
      ^ "\n");
  Buffer.contents buf

(* Compares the same schedule fault-free vs. under a fault plan: total
   simulated time, the recovery breakdown, and what the checkpoint
   machinery moved. Both runs come from the same [Profile.t] so the bench
   harness and [distalc --faults] can export one trace holding both. *)
let resilience_report ~(baseline : Profile.run) ~(faulty : Profile.run) =
  let v (run : Profile.run) name =
    Option.value (Metrics.value run.Profile.metrics name) ~default:0.0
  in
  let t0 = v baseline "exec.time" and t1 = v faulty "exec.time" in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== resilience report ==\n";
  let table = Table.create ~header:[ "run"; "time (s)"; "slowdown" ] in
  Table.add_row table [ baseline.Profile.name; fsec t0; "1.00x" ];
  Table.add_row table
    [
      faulty.Profile.name; fsec t1;
      (if t0 > 0.0 then Printf.sprintf "%.2fx" (t1 /. t0) else "-");
    ];
  Buffer.add_string buf (Table.to_string table);
  Buffer.add_string buf
    (Printf.sprintf
       "faults injected: %.0f; steps replayed: %.0f; recovery %.6g s (%.1f%% \
        of faulted run)\n"
       (v faulty "exec.faults_injected")
       (v faulty "exec.replayed_steps")
       (v faulty "exec.recovery_time")
       (if t1 > 0.0 then 100.0 *. v faulty "exec.recovery_time" /. t1 else 0.0));
  let ckpt = v faulty "exec.checkpoint_bytes" in
  if ckpt > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf
         "checkpoints: %s written (%.6g s overlapped); %s restored\n"
         (bytes_human ckpt)
         (v faulty "exec.checkpoint_time")
         (bytes_human (v faulty "exec.restore_bytes")))
  else
    Buffer.add_string buf
      "checkpoints: off (recovery replays from the start of the run)\n";
  Buffer.contents buf

let by_tensor_prefix = "exec.bytes_by_tensor."

let traffic_by_tensor reg =
  let rows =
    List.filter_map
      (fun name ->
        if String.length name > String.length by_tensor_prefix
           && String.sub name 0 (String.length by_tensor_prefix) = by_tensor_prefix
        then
          let tensor =
            String.sub name (String.length by_tensor_prefix)
              (String.length name - String.length by_tensor_prefix)
          in
          match Metrics.value reg name with
          | Some b when b > 0.0 -> Some (tensor, b)
          | _ -> None
        else None)
      (Metrics.names reg)
  in
  if rows = [] then ""
  else begin
    let total = List.fold_left (fun acc (_, b) -> acc +. b) 0.0 rows in
    let table = Table.create ~header:[ "tensor"; "moved"; "share" ] in
    List.iter
      (fun (tensor, b) ->
        Table.add_row table
          [
            tensor; bytes_human b;
            Printf.sprintf "%.0f%%" (if total > 0.0 then 100.0 *. b /. total else 0.0);
          ])
      (List.sort (fun (ta, a) (tb, b) -> if a = b then compare ta tb else compare b a) rows);
    "traffic by tensor:\n" ^ Table.to_string table
  end

(* Host-side execution line: the simulated times above never depend on
   the host, but where the simulation's own wall clock and allocation go
   is worth a glance when tuning it. *)
let host_execution reg =
  match Metrics.value reg "exec.compute_wall_s" with
  | None -> ""
  | Some wall ->
      let v name = Option.value (Metrics.value reg name) ~default:0.0 in
      let alloc =
        (* OCaml-heap allocation of the run itself; bigarray payloads live
           off-heap, so this tracks planning and bookkeeping churn — the
           words a reused executable plan avoids. *)
        match Metrics.value reg "exec.alloc_minor_words" with
        | None -> ""
        | Some minor ->
            Printf.sprintf ", %.3g M minor / %.3g M major words"
              (minor /. 1e6)
              (v "exec.alloc_major_words" /. 1e6)
      in
      Printf.sprintf
        "host: resolve %.3g s, walk %.3g s, price %.3g s (of which planning %.3g s)%s\n"
        (v "exec.setup_wall_s") wall (v "exec.assembly_wall_s") (v "exec.plan_wall_s") alloc

let run_report (run : Profile.run) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "== profile: %s ==\n" run.Profile.name);
  (match run.Profile.timeline with
  | Some tl ->
      Buffer.add_string buf (step_table tl);
      Buffer.add_string buf (critical_path_summary (Cp.analyse tl))
  | None -> Buffer.add_string buf "(no timeline recorded)\n");
  Buffer.add_string buf (host_execution run.Profile.metrics);
  Buffer.add_string buf (traffic_by_tensor run.Profile.metrics);
  Buffer.add_string buf (Metrics.render run.Profile.metrics);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let slot_to_json (sl : Cp.slot) =
  Json.Obj
    [
      ("proc", Json.Int sl.Cp.proc);
      ("compute", Json.Float sl.Cp.compute);
      ("comm", Json.Float sl.Cp.comm);
      ("busy", Json.Float sl.Cp.busy);
    ]

let step_to_json (s : Cp.step) =
  Json.Obj
    [
      ("index", Json.Int s.Cp.index);
      ("start", Json.Float s.Cp.start);
      ("cost", Json.Float s.Cp.cost);
      ("bytes", Json.Float s.Cp.bytes);
      ("messages", Json.Int s.Cp.messages);
      ("fabric", Json.Float s.Cp.fabric);
      ("slots", Json.List (List.map slot_to_json s.Cp.slots));
    ]

let timeline_to_json (tl : Cp.timeline) =
  Json.Obj
    [
      ("nprocs", Json.Int tl.Cp.nprocs);
      ("overhead", Json.Float tl.Cp.overhead);
      ("reduction", Json.Float tl.Cp.reduction);
      ("recovery", Json.Float tl.Cp.recovery);
      ("total", Json.Float tl.Cp.total);
      ("steps", Json.List (List.map step_to_json tl.Cp.steps));
    ]

let node_to_json (n : Cp.node) =
  Json.Obj
    [
      ("step", Json.Int n.Cp.step);
      ("resource", Json.String n.Cp.resource);
      ("compute", Json.Float n.Cp.compute);
      ("comm", Json.Float n.Cp.comm);
      ("cost", Json.Float n.Cp.cost);
    ]

let critical_path_to_json (cp : Cp.t) =
  Json.Obj
    [
      ("end_time", Json.Float cp.Cp.end_time);
      ("compute_time", Json.Float cp.Cp.compute_time);
      ("comm_time", Json.Float cp.Cp.comm_time);
      ("overhead", Json.Float cp.Cp.overhead);
      ("reduction", Json.Float cp.Cp.reduction);
      ("recovery", Json.Float cp.Cp.recovery);
      ("bottleneck", Json.String cp.Cp.bottleneck);
      ("nodes", Json.List (List.map node_to_json cp.Cp.nodes));
      ( "slack",
        Json.List
          (List.map
             (fun (p, s) ->
               Json.Obj [ ("proc", Json.Int p); ("idle", Json.Float s) ])
             cp.Cp.slack) );
    ]

let run_to_json (run : Profile.run) =
  Json.Obj
    ([ ("pid", Json.Int run.Profile.pid); ("name", Json.String run.Profile.name) ]
    @ (match run.Profile.timeline with
      | Some tl ->
          [
            ("timeline", timeline_to_json tl);
            ("critical_path", critical_path_to_json (Cp.analyse tl));
          ]
      | None -> [])
    @ [ ("metrics", Metrics.to_json run.Profile.metrics) ])
