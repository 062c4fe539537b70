(* The distald message vocabulary, carried as single-line JSON documents
   inside Wire frames (lib/support/wire.ml).

   Client -> server: submit | stats | shutdown.
   Server -> client: result (ok | rejected | error), stats, shutdown_ack.

   All JSON goes through the shared lib/support writer/parser, so string
   escaping and float round-tripping are fixed in exactly one place.
   Dense outputs travel as base64 of their raw IEEE-754 bytes, which
   reproduce the bits on decode — the byte-identity guarantee of the
   serving layer survives the wire.

   A result's payload moves between the output's bigarray and the frame
   in one pass on each side: the encoder writes it straight into the
   one allocation that becomes the frame, and the decoder reads it from
   the received frame straight into a fresh tensor; only the small JSON
   around it is rendered or parsed as a tree. The bytes on the wire are
   those of rendering the whole message as one JSON tree. *)

module Api = Distal.Api
module Dense = Distal_tensor.Dense
module Json = Distal_support.Json
module Base64 = Distal_support.Base64
module Wire = Distal_support.Wire

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

type tensor_decl = { td_name : string; td_shape : int array; td_dist : string }

type submit = {
  id : int;
  machine_dims : int array;
  machine_node_factors : int array option;
  gpu : bool;
  mem_per_proc : float option;
  virtual_grid : int array option;
  tensors : tensor_decl list;
  stmt : string;
  schedule : string;
  mode : Api.Exec.mode;
  seed : int;
  faults : string option;
}

let submit ?node_factors ?(gpu = false) ?mem_per_proc ?virtual_grid
    ?(mode = Api.Exec.Full) ?(seed = 42) ?faults ~id ~machine_dims ~tensors ~stmt
    ~schedule () =
  {
    id;
    machine_dims;
    machine_node_factors = node_factors;
    gpu;
    mem_per_proc;
    virtual_grid;
    tensors;
    stmt;
    schedule;
    mode;
    seed;
    faults;
  }

type client_msg = Submit of submit | Stats | Shutdown

type reply = {
  rid : int;
  plan_cached : bool;
  result_cached : bool;
  batch : int;  (* how many same-fingerprint requests shared the compile *)
  stats : Api.Stats.t;
  output : Dense.t option;
}

type server_msg =
  | Result of reply
  | Rejected of { rid : int; retry_after_s : float; reason : string }
  | Failed of { rid : int; reason : string }
  | StatsReply of { queue_depth : int; served : int; metrics : Json.t }
  | ShutdownAck

(* {2 Conversions to the compiler's types} *)

let to_request (s : submit) =
  let kind = if s.gpu then Api.Machine.Gpu else Api.Machine.Cpu in
  let mem =
    match s.mem_per_proc with Some m -> m | None -> if s.gpu then 16e9 else 256e9
  in
  let* machine =
    try
      Ok
        (Api.Machine.grid ?node_factors:s.machine_node_factors ~kind ~mem_per_proc:mem
           s.machine_dims)
    with Invalid_argument e -> Error e
  in
  let* tensors =
    List.fold_left
      (fun acc td ->
        let* acc = acc in
        let* dist = Distal_ir.Distnot.parse td.td_dist in
        Ok (Api.tensor_d td.td_name td.td_shape dist :: acc))
      (Ok []) s.tensors
  in
  Ok
    (Api.request ?virtual_grid:s.virtual_grid ~machine ~stmt:s.stmt
       ~schedule:s.schedule ~tensors:(List.rev tensors) ())

(* {2 JSON encoding} *)

let json_of_int_array a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let int_array_of_json ~what = function
  | Json.List l ->
      let* xs =
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match v with
            | Json.Int i -> Ok (i :: acc)
            | _ -> errf "%s must be an array of integers" what)
          (Ok []) l
      in
      Ok (Array.of_list (List.rev xs))
  | _ -> errf "%s must be an array of integers" what

let opt_field k = function None -> [] | Some v -> [ (k, v) ]

(* An output travels as its raw little-endian IEEE-754 bytes in base64
   ("f64le"): every bit survives, including NaN payloads, infinities and
   signed zeros. The tree holds the output's shape and an empty payload;
   the encoder writes the payload between those quotes and the decoder
   reads it from the frame, each in one pass (see {2 Wire payloads}). *)
let json_of_output shape =
  Json.Obj [ ("shape", json_of_int_array shape); ("f64le", Json.String "") ]

(* The element count of a shape off the wire, when it is a plain
   non-negative int whose bytes do not overflow. *)
let elements shape =
  Array.fold_left
    (fun acc e ->
      match acc with
      | Some n when e >= 0 && (e = 0 || n <= max_int / 8 / e) -> Some (n * e)
      | _ -> None)
    (Some 1) shape

let output_length shape =
  if Array.exists (fun e -> e < 0) shape then None
  else
    let wrapper = String.length (Json.to_string (json_of_output shape)) in
    match elements shape with
    | Some n when n <= max_int / 16 -> Some (wrapper + Base64.f64_length n)
    | _ -> Some max_int

(* [span] is where the payload's characters are when the decoder cut
   them out of the frame before parsing; otherwise they are the tree's. *)
let dense_of_json ~span j =
  let* shape =
    match Json.member "shape" j with
    | Some s -> int_array_of_json ~what:"output shape" s
    | None -> Error "output missing shape"
  in
  match (elements shape, Json.member "f64le" j) with
  | None, _ -> Error "output shape is negative or too large"
  | Some n, Some (Json.String b64) -> (
      let s, off, len = Option.value span ~default:(b64, 0, String.length b64) in
      (* The length is checked before anything is sized by the shape. *)
      if Option.is_some span && b64 <> "" then Error "output payload is not where it was cut"
      else if n > len || len <> Base64.f64_length n then
        errf "output payload: %d base64 characters cannot carry %d float64 values" len n
      else
        let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        match Base64.decode_f64 s off len buf with
        | Ok () -> Ok (Dense.of_buf buf shape)
        | Error e -> errf "output payload: %s" e)
  | Some _, Some _ -> Error "output f64le must be a base64 string"
  | Some _, None -> Error "output missing f64le payload"

let json_of_stats (s : Api.Stats.t) =
  Json.Obj
    [
      ("time", Json.Float s.Api.Stats.time);
      ("flops", Json.Float s.Api.Stats.flops);
      ("bytes_intra", Json.Float s.Api.Stats.bytes_intra);
      ("bytes_inter", Json.Float s.Api.Stats.bytes_inter);
      ("messages", Json.Int s.Api.Stats.messages);
      ("peak_mem", Json.Float s.Api.Stats.peak_mem);
      ("oom", Json.Bool s.Api.Stats.oom);
      ("tasks", Json.Int s.Api.Stats.tasks);
      ("steps", Json.Int s.Api.Stats.steps);
    ]

let stats_of_json j =
  let f k =
    match Json.member k j with
    | Some v -> ( match Json.to_float v with Some x -> Ok x | None -> errf "stats.%s" k)
    | None -> errf "stats missing %s" k
  in
  let i k =
    match Json.member k j with
    | Some (Json.Int v) -> Ok v
    | _ -> errf "stats.%s must be an integer" k
  in
  let b k =
    match Json.member k j with
    | Some (Json.Bool v) -> Ok v
    | _ -> errf "stats.%s must be a boolean" k
  in
  let* time = f "time" in
  let* flops = f "flops" in
  let* bytes_intra = f "bytes_intra" in
  let* bytes_inter = f "bytes_inter" in
  let* messages = i "messages" in
  let* peak_mem = f "peak_mem" in
  let* oom = b "oom" in
  let* tasks = i "tasks" in
  let* steps = i "steps" in
  let s = Api.Stats.create () in
  s.Api.Stats.time <- time;
  s.Api.Stats.flops <- flops;
  s.Api.Stats.bytes_intra <- bytes_intra;
  s.Api.Stats.bytes_inter <- bytes_inter;
  s.Api.Stats.messages <- messages;
  s.Api.Stats.peak_mem <- peak_mem;
  s.Api.Stats.oom <- oom;
  s.Api.Stats.tasks <- tasks;
  s.Api.Stats.steps <- steps;
  Ok s

let json_of_tensor_decl td =
  Json.Obj
    [
      ("name", Json.String td.td_name);
      ("shape", json_of_int_array td.td_shape);
      ("dist", Json.String td.td_dist);
    ]

let tensor_decl_of_json j =
  let* td_name =
    match Json.member "name" j with
    | Some (Json.String s) -> Ok s
    | _ -> Error "tensor missing name"
  in
  let* td_shape =
    match Json.member "shape" j with
    | Some s -> int_array_of_json ~what:"tensor shape" s
    | None -> Error "tensor missing shape"
  in
  let* td_dist =
    match Json.member "dist" j with
    | Some (Json.String s) -> Ok s
    | _ -> Error "tensor missing dist"
  in
  Ok { td_name; td_shape; td_dist }

let mode_to_string = function Api.Exec.Model -> "model" | Api.Exec.Full -> "full"

let mode_of_string = function
  | "model" -> Ok Api.Exec.Model
  | "full" -> Ok Api.Exec.Full
  | m -> errf "unknown mode %S" m

let client_msg_to_json = function
  | Stats -> Json.Obj [ ("type", Json.String "stats") ]
  | Shutdown -> Json.Obj [ ("type", Json.String "shutdown") ]
  | Submit s ->
      Json.Obj
        ([
           ("type", Json.String "submit");
           ("id", Json.Int s.id);
           ("machine", json_of_int_array s.machine_dims);
         ]
        @ opt_field "node_factors" (Option.map json_of_int_array s.machine_node_factors)
        @ (if s.gpu then [ ("gpu", Json.Bool true) ] else [])
        @ opt_field "mem_per_proc" (Option.map (fun m -> Json.Float m) s.mem_per_proc)
        @ opt_field "virtual_grid" (Option.map json_of_int_array s.virtual_grid)
        @ [
            ("tensors", Json.List (List.map json_of_tensor_decl s.tensors));
            ("stmt", Json.String s.stmt);
            ("schedule", Json.String s.schedule);
            ("mode", Json.String (mode_to_string s.mode));
            ("seed", Json.Int s.seed);
          ]
        @ opt_field "faults" (Option.map (fun f -> Json.String f) s.faults))

let submit_of_json j =
  let* id =
    match Json.member "id" j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error "submit missing integer id"
  in
  let* machine_dims =
    match Json.member "machine" j with
    | Some m -> int_array_of_json ~what:"machine" m
    | None -> Error "submit missing machine"
  in
  let* machine_node_factors =
    match Json.member "node_factors" j with
    | None -> Ok None
    | Some m -> Result.map Option.some (int_array_of_json ~what:"node_factors" m)
  in
  let gpu = match Json.member "gpu" j with Some (Json.Bool b) -> b | _ -> false in
  let mem_per_proc =
    match Json.member "mem_per_proc" j with Some v -> Json.to_float v | None -> None
  in
  let* virtual_grid =
    match Json.member "virtual_grid" j with
    | None | Some Json.Null -> Ok None
    | Some g -> Result.map Option.some (int_array_of_json ~what:"virtual_grid" g)
  in
  let* tensors =
    match Json.member "tensors" j with
    | Some (Json.List l) ->
        List.fold_left
          (fun acc t ->
            let* acc = acc in
            let* td = tensor_decl_of_json t in
            Ok (td :: acc))
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "submit missing tensors"
  in
  let* stmt =
    match Json.member "stmt" j with
    | Some (Json.String s) -> Ok s
    | _ -> Error "submit missing stmt"
  in
  let* schedule =
    match Json.member "schedule" j with
    | Some (Json.String s) -> Ok s
    | _ -> Error "submit missing schedule"
  in
  let* mode =
    match Json.member "mode" j with
    | None -> Ok Api.Exec.Full
    | Some (Json.String m) -> mode_of_string m
    | Some _ -> Error "submit mode must be a string"
  in
  let seed = match Json.member "seed" j with Some (Json.Int s) -> s | _ -> 42 in
  let* faults =
    match Json.member "faults" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.String f) -> Ok (Some f)
    | Some _ -> Error "submit faults must be a string"
  in
  Ok
    {
      id;
      machine_dims;
      machine_node_factors;
      gpu;
      mem_per_proc;
      virtual_grid;
      tensors;
      stmt;
      schedule;
      mode;
      seed;
      faults;
    }

let client_msg_of_json j =
  match Json.member "type" j with
  | Some (Json.String "stats") -> Ok Stats
  | Some (Json.String "shutdown") -> Ok Shutdown
  | Some (Json.String "submit") -> Result.map (fun s -> Submit s) (submit_of_json j)
  | Some (Json.String t) -> errf "unknown client message type %S" t
  | _ -> Error "client message missing type"

(* The message's tree, with any output's payload left empty. *)
let server_msg_to_json = function
  | Result r ->
      Json.Obj
        [
          ("type", Json.String "result");
          ("id", Json.Int r.rid);
          ("status", Json.String "ok");
          ("plan_cached", Json.Bool r.plan_cached);
          ("result_cached", Json.Bool r.result_cached);
          ("batch", Json.Int r.batch);
          ("stats", json_of_stats r.stats);
          ( "output",
            match r.output with None -> Json.Null | Some d -> json_of_output (Dense.shape d) );
        ]
  | Rejected { rid; retry_after_s; reason } ->
      Json.Obj
        [
          ("type", Json.String "result");
          ("id", Json.Int rid);
          ("status", Json.String "rejected");
          ("retry_after_s", Json.Float retry_after_s);
          ("error", Json.String reason);
        ]
  | Failed { rid; reason } ->
      Json.Obj
        [
          ("type", Json.String "result");
          ("id", Json.Int rid);
          ("status", Json.String "error");
          ("error", Json.String reason);
        ]
  | StatsReply { queue_depth; served; metrics } ->
      Json.Obj
        [
          ("type", Json.String "stats");
          ("queue_depth", Json.Int queue_depth);
          ("served", Json.Int served);
          ("metrics", metrics);
        ]
  | ShutdownAck -> Json.Obj [ ("type", Json.String "shutdown_ack") ]

let server_msg_of_json ~span j =
  match Json.member "type" j with
  | Some (Json.String "shutdown_ack") -> Ok ShutdownAck
  | Some (Json.String "stats") ->
      let* queue_depth =
        match Json.member "queue_depth" j with
        | Some (Json.Int n) -> Ok n
        | _ -> Error "stats missing queue_depth"
      in
      let* served =
        match Json.member "served" j with
        | Some (Json.Int n) -> Ok n
        | _ -> Error "stats missing served"
      in
      let metrics = Option.value (Json.member "metrics" j) ~default:Json.Null in
      Ok (StatsReply { queue_depth; served; metrics })
  | Some (Json.String "result") -> (
      let* rid =
        match Json.member "id" j with
        | Some (Json.Int i) -> Ok i
        | _ -> Error "result missing id"
      in
      match Json.member "status" j with
      | Some (Json.String "ok") ->
          let plan_cached =
            match Json.member "plan_cached" j with Some (Json.Bool b) -> b | _ -> false
          in
          let result_cached =
            match Json.member "result_cached" j with Some (Json.Bool b) -> b | _ -> false
          in
          let batch =
            match Json.member "batch" j with Some (Json.Int b) -> b | _ -> 1
          in
          let* stats =
            match Json.member "stats" j with
            | Some s -> stats_of_json s
            | None -> Error "result missing stats"
          in
          let* output =
            match Json.member "output" j with
            | None | Some Json.Null -> Ok None
            | Some d -> Result.map Option.some (dense_of_json ~span d)
          in
          Ok (Result { rid; plan_cached; result_cached; batch; stats; output })
      | Some (Json.String "rejected") ->
          let* retry_after_s =
            match Option.bind (Json.member "retry_after_s" j) Json.to_float with
            | Some f -> Ok f
            | None -> Error "rejected result missing retry_after_s"
          in
          let reason =
            match Json.member "error" j with Some (Json.String e) -> e | _ -> "rejected"
          in
          Ok (Rejected { rid; retry_after_s; reason })
      | Some (Json.String "error") ->
          let reason =
            match Json.member "error" j with Some (Json.String e) -> e | _ -> "error"
          in
          Ok (Failed { rid; reason })
      | _ -> Error "result missing status")
  | Some (Json.String t) -> errf "unknown server message type %S" t
  | _ -> Error "server message missing type"

(* {2 Wire payloads}

   A result's payload is nearly all of its bytes, so it never passes
   through a JSON string or an intermediate byte buffer. The encoder
   renders the small tree around it, sizes the reply exactly and writes
   the base64 straight from the output's bigarray into the one
   allocation that becomes the frame. The decoder finds the payload's
   span in the received frame, parses only the text around it and
   decodes the span straight into a fresh tensor. The bytes on the wire
   are exactly what rendering the whole tree would give. *)

(* The exact length of [m] and a writer for it at an offset. With an
   output, the tree renders as [..."f64le":""}}]: the output is the
   result's last field and the payload its last, so the payload goes
   before the closing three bytes. *)
let render m =
  let text = Json.to_string (server_msg_to_json m) in
  let n = String.length text in
  match m with
  | Result { output = Some d; _ } ->
      let data = Dense.unsafe_data d in
      let len = n + Base64.f64_length (Bigarray.Array1.dim data) in
      ( len,
        fun b off ->
          Bytes.blit_string text 0 b off (n - 3);
          Base64.encode_f64 data b (off + n - 3);
          Bytes.blit_string text (n - 3) b (off + len - 3) 3 )
  | _ -> (n, fun b off -> Bytes.blit_string text 0 b off n)

let encode_server m =
  let len, write = render m in
  let b = Bytes.create len in
  write b 0;
  Bytes.unsafe_to_string b

let frame_server buf m =
  let len, write = render m in
  Wire.frame buf len write

let encode_client m = Json.to_string (client_msg_to_json m)

let decode payload parse =
  match Json.parse payload with Error e -> errf "invalid JSON: %s" e | Ok j -> parse j

let decode_client payload = decode payload client_msg_of_json

(* {3 Locating the payload}

   A walk over the frame's structure — strings with their escapes,
   brackets by depth, the first occurrence of each key as [Json.member]
   takes it — finds where the string at ["output"]["f64le"] opens. It
   does not validate: [Json.parse] does, on what is left. A key with an
   escape stops the walk. *)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let rec skip_ws s i = if i < String.length s && is_ws s.[i] then skip_ws s (i + 1) else i

(* Index just past the string whose contents start at [i]; -1 if it
   does not end. *)
let rec string_end s i =
  if i >= String.length s then -1
  else
    match String.unsafe_get s i with
    | '"' -> i + 1
    | '\\' -> string_end s (i + 2)
    | _ -> string_end s (i + 1)

(* Index just past the value at [i]; -1 if it does not end. *)
let value_end s i =
  let n = String.length s in
  let rec container j depth =
    if j >= n then -1
    else
      match s.[j] with
      | '"' ->
          let e = string_end s (j + 1) in
          if e < 0 then -1 else container e depth
      | '{' | '[' -> container (j + 1) (depth + 1)
      | '}' | ']' -> if depth = 1 then j + 1 else container (j + 1) (depth - 1)
      | _ -> container (j + 1) depth
  in
  let rec scalar j =
    if j >= n then j
    else match s.[j] with ',' | '}' | ']' -> j | c when is_ws c -> j | _ -> scalar (j + 1)
  in
  if i >= n then -1
  else
    match s.[i] with
    | '"' -> string_end s (i + 1)
    | '{' | '[' -> container (i + 1) 1
    | _ -> scalar i

(* Where the value of key [k] starts in the object at [i]; -1 if absent. *)
let field s i k =
  let n = String.length s in
  let rec member j =
    let j = skip_ws s j in
    if j >= n || s.[j] <> '"' then -1
    else
      let e = string_end s (j + 1) in
      if e < 0 || String.contains (String.sub s j (e - j - 1)) '\\' then -1
      else
        let colon = skip_ws s e in
        if colon >= n || s.[colon] <> ':' then -1
        else
          let v = skip_ws s (colon + 1) in
          if e - j - 2 = String.length k && String.sub s (j + 1) (e - j - 2) = k then v
          else
            let next = value_end s v in
            let next = if next < 0 then n else skip_ws s next in
            if next < n && s.[next] = ',' then member (next + 1) else -1
  in
  if i < 0 || i >= n || s.[i] <> '{' then -1 else member (i + 1)

(* The frame with the payload cut out, and the payload's span — when
   the payload string is the frame's last one. The span is a guess until
   its characters decode: a '"' or '\\' in it (a later string, or an
   escape) is outside the base64 alphabet, and the whole frame is then
   parsed instead. *)
let cut_payload s =
  let lo = field s (field s (skip_ws s 0) "output") "f64le" in
  if lo < 0 || lo >= String.length s || s.[lo] <> '"' then None
  else
    match String.rindex_opt s '"' with
    | Some hi when hi > lo ->
        let skeleton = Bytes.create (String.length s - (hi - lo - 1)) in
        Bytes.blit_string s 0 skeleton 0 (lo + 1);
        Bytes.blit_string s hi skeleton (lo + 1) (String.length s - hi);
        Some (Bytes.unsafe_to_string skeleton, (s, lo + 1, hi - lo - 1))
    | _ -> None

let decode_server payload =
  let whole () = decode payload (server_msg_of_json ~span:None) in
  match cut_payload payload with
  | None -> whole ()
  | Some (skeleton, span) -> (
      (* Only a decoded output vouches for the span. *)
      match decode skeleton (server_msg_of_json ~span:(Some span)) with
      | Ok (Result { output = Some _; _ }) as ok -> ok
      | _ -> whole ())
