let complete sink ~name ~cat ~pid ~tid ~ts ~dur ?(attrs = []) () =
  Event.emit sink { Event.name; cat; pid; tid; ts; kind = Event.Span dur; attrs }

let instant sink ~name ~cat ~pid ~tid ~ts ?(attrs = []) () =
  Event.emit sink { Event.name; cat; pid; tid; ts; kind = Event.Instant; attrs }

let counter sink ~name ~pid ~tid ~ts v =
  Event.emit sink
    { Event.name; cat = "counter"; pid; tid; ts; kind = Event.Counter v; attrs = [] }

let process_name sink ~pid name =
  Event.emit sink
    {
      Event.name = "process_name";
      cat = "__metadata";
      pid;
      tid = 0;
      ts = 0.0;
      kind = Event.Meta;
      attrs = [ ("name", Event.Str name) ];
    }

let thread_name sink ~pid ~tid name =
  Event.emit sink
    {
      Event.name = "thread_name";
      cat = "__metadata";
      pid;
      tid;
      ts = 0.0;
      kind = Event.Meta;
      attrs = [ ("name", Event.Str name) ];
    }

(* The compiler track: pid 0, everything on one thread. *)
let wall sink ~name f =
  match sink with
  | None -> f ()
  | Some sink ->
      let t0 = Sys.time () in
      let finish () =
        complete sink ~name ~cat:"compile" ~pid:0 ~tid:0 ~ts:t0 ~dur:(Sys.time () -. t0) ()
      in
      let r = try f () with e -> finish (); raise e in
      finish ();
      r
