module Json = Distal_support.Json

let us s = s *. 1e6

let event_to_json (e : Event.t) =
  let args = List.map (fun (k, v) -> (k, Event.value_to_json v)) e.attrs in
  let base ph extra =
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("cat", Json.String e.cat);
         ("ph", Json.String ph);
         ("pid", Json.Int e.pid);
         ("tid", Json.Int e.tid);
       ]
      @ extra)
  in
  match e.kind with
  | Event.Span dur ->
      base "X"
        [
          ("ts", Json.Float (us e.ts));
          ("dur", Json.Float (us dur));
          ("args", Json.Obj args);
        ]
  | Event.Instant ->
      base "i"
        [
          ("ts", Json.Float (us e.ts));
          ("s", Json.String "t");
          ("args", Json.Obj args);
        ]
  | Event.Counter v ->
      base "C"
        [
          ("ts", Json.Float (us e.ts));
          ("args", Json.Obj [ (e.name, Json.Float v) ]);
        ]
  | Event.Meta -> base "M" [ ("ts", Json.Float 0.0); ("args", Json.Obj args) ]

let json_of_events events =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_to_json events));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj [ ("producer", Json.String "distal simulator") ] );
    ]

let to_string events = Json.to_string (json_of_events events)

let of_profile p = to_string (Profile.events p)

let save ~file p =
  let oc = open_out file in
  output_string oc (of_profile p);
  output_char oc '\n';
  close_out oc
