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
let events t = Event.events t.sink
