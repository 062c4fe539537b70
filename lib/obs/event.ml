module Json = Distal_support.Json

type value = Bool of bool | Int of int | Float of float | Str of string

type kind = Span of float | Instant | Counter of float | Meta

type t = {
  name : string;
  cat : string;
  pid : int;
  tid : int;
  ts : float;
  kind : kind;
  attrs : (string * value) list;
}

type sink = { mutable rev_events : t list }

let sink () = { rev_events = [] }
let emit s e = s.rev_events <- e :: s.rev_events
let events s = List.rev s.rev_events

let value_to_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s
