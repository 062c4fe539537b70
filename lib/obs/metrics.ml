(* A flat float record: updating it stores the float in place, so the
   simulator's per-effect increments allocate nothing. *)
type cell = { mutable v : float }
type counter = cell
type gauge = cell

(* Float statistics kept apart from the int fields, again so that
   [observe] updates them in place. *)
type hstats = { mutable sum : float; mutable min_v : float; mutable max_v : float }

type histogram = {
  mutable count : int;
  st : hstats;
  buckets : float array;  (* upper bounds, ascending *)
  bucket_counts : int array;  (* one extra slot for +inf *)
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = (string, instrument) Hashtbl.t

let create () : registry = Hashtbl.create 32

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create reg name make match_ =
  match Hashtbl.find_opt reg name with
  | Some i -> (
      match match_ i with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name i)))
  | None ->
      let x = make () in
      x

let counter reg name =
  get_or_create reg name
    (fun () ->
      let c = { v = 0.0 } in
      Hashtbl.replace reg name (Counter c);
      c)
    (function Counter c -> Some c | _ -> None)

let inc c x = c.v <- c.v +. x
let inc_int c x = c.v <- c.v +. float_of_int x

let gauge reg name =
  get_or_create reg name
    (fun () ->
      let g = { v = 0.0 } in
      Hashtbl.replace reg name (Gauge g);
      g)
    (function Gauge g -> Some g | _ -> None)

let set g x = g.v <- x
let set_max g x = if x > g.v then g.v <- x

let default_buckets =
  Array.init 13 (fun i -> Float.pow 10.0 (float_of_int i))

let seconds_buckets = Array.init 8 (fun i -> Float.pow 10.0 (float_of_int (i - 6)))

let histogram ?(buckets = default_buckets) reg name =
  get_or_create reg name
    (fun () ->
      let h =
        {
          count = 0;
          st = { sum = 0.0; min_v = infinity; max_v = neg_infinity };
          buckets;
          bucket_counts = Array.make (Array.length buckets + 1) 0;
        }
      in
      Hashtbl.replace reg name (Histogram h);
      h)
    (function Histogram h -> Some h | _ -> None)

let observe_n h v k =
  if k > 0 then begin
    h.count <- h.count + k;
    let st = h.st in
    (* Added [k] times, so the sum keeps the bits of [k] [observe]s. *)
    for _ = 1 to k do
      st.sum <- st.sum +. v
    done;
    if v < st.min_v then st.min_v <- v;
    if v > st.max_v then st.max_v <- v;
    let rec slot i =
      if i >= Array.length h.buckets then i
      else if v <= h.buckets.(i) then i
      else slot (i + 1)
    in
    let i = slot 0 in
    h.bucket_counts.(i) <- h.bucket_counts.(i) + k
  end

let observe h v = observe_n h v 1

let histogram_count h = h.count

let value reg name =
  match Hashtbl.find_opt reg name with
  | Some (Counter c) -> Some c.v
  | Some (Gauge g) -> Some g.v
  | Some (Histogram h) -> Some h.st.sum
  | None -> None

let names reg =
  Hashtbl.fold (fun k _ acc -> k :: acc) reg [] |> List.sort compare

let instrument_to_json = function
  | Counter c -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Float c.v) ]
  | Gauge g -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float g.v) ]
  | Histogram h ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int h.count);
          ("sum", Json.Float h.st.sum);
          ("min", if h.count = 0 then Json.Null else Json.Float h.st.min_v);
          ("max", if h.count = 0 then Json.Null else Json.Float h.st.max_v);
          ( "buckets",
            Json.List
              (Array.to_list
                 (Array.mapi
                    (fun i le ->
                      Json.Obj
                        [
                          ("le", Json.Float le);
                          ("count", Json.Int h.bucket_counts.(i));
                        ])
                    h.buckets)
              @ [
                  Json.Obj
                    [
                      ("le", Json.Null);
                      ( "count",
                        Json.Int h.bucket_counts.(Array.length h.buckets) );
                    ];
                ]) );
        ]

let to_json reg =
  Json.Obj
    (List.map (fun n -> (n, instrument_to_json (Hashtbl.find reg n))) (names reg))

let render reg =
  String.concat "\n"
    (List.map
       (fun n ->
         match Hashtbl.find reg n with
         | Counter c -> Printf.sprintf "%-24s counter  %.6g" n c.v
         | Gauge g -> Printf.sprintf "%-24s gauge    %.6g" n g.v
         | Histogram h ->
             Printf.sprintf "%-24s hist     n=%d sum=%.6g min=%.6g max=%.6g" n
               h.count h.st.sum
               (if h.count = 0 then 0.0 else h.st.min_v)
               (if h.count = 0 then 0.0 else h.st.max_v))
       (names reg))
