type run = {
  pid : int;
  name : string;
  metrics : Metrics.registry;
  mutable timeline : Critical_path.timeline option;
}

type t = {
  sink : Event.sink;
  mutable rev_runs : run list;
  mutable next_pid : int;
  mutable pending_name : string option;
}

let create () =
  { sink = Event.sink (); rev_runs = []; next_pid = 1; pending_name = None }

let sink t = t.sink

let set_next_run_name t name = t.pending_name <- Some name

let begin_run ~fallback t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let name =
    match t.pending_name with
    | Some n ->
        t.pending_name <- None;
        n
    | None -> Printf.sprintf "%s%d" fallback pid
  in
  let run = { pid; name; metrics = Metrics.create (); timeline = None } in
  t.rev_runs <- run :: t.rev_runs;
  Span.process_name t.sink ~pid name;
  run

let runs t = List.rev t.rev_runs

module Cp = Critical_path

(* A payload's label: its first rectangle, and for a strided run how
   many more rectangles follow it. *)
let piece (g : Cp.copy) =
  let first = Distal_tensor.Rect.to_string (List.hd g.rects) in
  if g.fragments = 1 then first else Printf.sprintf "%s (+%d fragments)" first (g.fragments - 1)

(* The events of one run, from its record: track names, the launch
   overhead on the runtime track (one past the last processor), then per
   step its span and byte counter on the runtime track, a compute span
   (with the flops and bytes it touched) and the exposed communication on
   each busy processor, and one instant per wire message on its
   receiver's track; then the reduction epilogue, and per kill a kill
   instant on the victim's track and a recovery span chained after the
   epilogue. An exchange has processor tracks only. *)
let render sink ~pid (tl : Cp.timeline) =
  let rt = tl.nprocs and f k v = (k, Event.Float v) and i k v = (k, Event.Int v) in
  if not tl.exchange then Span.thread_name sink ~pid ~tid:rt "runtime";
  for proc = 0 to tl.nprocs - 1 do
    Span.thread_name sink ~pid ~tid:proc
      (Printf.sprintf "proc %d %s" proc
         (Distal_support.Ints.to_string (Distal_support.Ints.delinearize ~dims:tl.grid proc)))
  done;
  if tl.overhead > 0.0 then
    Span.complete sink ~name:"task launch overhead" ~cat:"runtime" ~pid ~tid:rt ~ts:0.0
      ~dur:tl.overhead ~attrs:[ i "tasks_per_proc" tl.tasks_per_proc ] ();
  List.iter
    (fun (row : Cp.step) ->
      let ts = row.start in
      if not tl.exchange then begin
        Span.complete sink ~name:(Printf.sprintf "step %d" row.index) ~cat:"step" ~pid ~tid:rt ~ts
          ~dur:row.cost
          ~attrs:[ f "bytes" row.bytes; i "messages" row.messages; f "fabric" row.fabric ]
          ();
        Span.counter sink ~name:"bytes moved" ~pid ~tid:rt ~ts row.bytes
      end;
      List.iter
        (fun (sl : Cp.slot) ->
          if sl.compute > 0.0 then
            Span.complete sink ~name:"compute" ~cat:"compute" ~pid ~tid:sl.proc ~ts ~dur:sl.compute
              ~attrs:[ f "flops" sl.flops; f "bytes_touched" sl.bytes_touched ]
              ();
          let exposed = sl.busy -. sl.compute in
          if exposed > 0.0 then
            Span.complete sink ~name:"comm" ~cat:"comm" ~pid ~tid:sl.proc ~ts:(ts +. sl.compute)
              ~dur:exposed ~attrs:[ f "occupancy" sl.comm ] ())
        row.slots;
      List.iter
        (fun (g : Cp.copy) ->
          let piece = piece g in
          Array.iter
            (fun dst ->
              let link = if tl.node_of.(g.src) = tl.node_of.(dst) then "intra" else "inter" in
              Span.instant sink ~name:g.tensor ~cat:"copy" ~pid ~tid:dst ~ts
                ~attrs:
                  [
                    ("tensor", Event.Str g.tensor); ("piece", Event.Str piece);
                    i "fragments" g.fragments; i "src" g.src; i "dst" dst; f "bytes" g.bytes;
                    ("link", Event.Str link); i "receivers" (Array.length g.receivers);
                  ]
                ())
            g.receivers)
        row.copies)
    tl.steps;
  let epilogue =
    tl.overhead +. List.fold_left (fun acc (r : Cp.step) -> acc +. r.cost) 0.0 tl.steps
  in
  if tl.reduction > 0.0 then
    Span.complete sink ~name:"distributed reduction" ~cat:"reduction" ~pid ~tid:rt ~ts:epilogue
      ~dur:tl.reduction ();
  let start_of k =
    match List.find_opt (fun (r : Cp.step) -> r.index = k) tl.steps with
    | Some r -> r.start
    | None -> tl.overhead
  in
  let cursor = ref (epilogue +. tl.reduction) in
  List.iter
    (fun (e : Cp.episode) ->
      Span.instant sink
        ~name:(Printf.sprintf "kill proc %d" e.victim)
        ~cat:"fault" ~pid ~tid:e.victim ~ts:(start_of e.kill_step)
        ~attrs:[ i "step" e.kill_step ] ();
      let dur = e.detect +. e.restore +. e.replay in
      let name =
        Printf.sprintf "recover proc %d: replay steps %d..%d" e.victim e.from_step e.kill_step
      in
      Span.complete sink ~name ~cat:"fault" ~pid ~tid:rt ~ts:!cursor ~dur
        ~attrs:
          [
            f "detect" e.detect; f "restore" e.restore; f "replay" e.replay;
            i "from_step" e.from_step; i "kill_step" e.kill_step;
          ]
        ();
      cursor := !cursor +. dur)
    tl.episodes

(* Nothing is emitted into a run's pid between its process-name metadata
   and the end of its simulation, so its rendered events follow that
   metadata. *)
let events t =
  let runs = Array.of_list (runs t) in
  let out = Event.sink () in
  List.iter
    (fun (e : Event.t) ->
      Event.emit out e;
      if e.kind = Event.Meta && e.name = "process_name" && e.pid >= 1 && e.pid <= Array.length runs
      then Option.iter (render out ~pid:e.pid) runs.(e.pid - 1).timeline)
    (Event.events t.sink);
  Event.events out
