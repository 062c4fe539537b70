(* The distald message vocabulary, carried as single-line JSON documents
   inside Wire frames (lib/support/wire.ml).

   Client -> server: submit | stats | shutdown.
   Server -> client: result (ok | rejected | error), stats, shutdown_ack.

   All JSON goes through the shared lib/support writer/parser, so string
   escaping and float round-tripping are fixed in exactly one place.
   A result's output follows its JSON head as a tail of raw
   little-endian IEEE-754 bytes, which reproduce the bits on decode —
   the byte-identity guarantee of the serving layer survives the wire.
   The tail moves between the output's bigarray and the frame in one
   pass on each side; only the small head is rendered or parsed as a
   tree. *)

module Api = Distal.Api
module Dense = Distal_tensor.Dense
module Json = Distal_support.Json
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

(* An output travels as its raw little-endian IEEE-754 bytes ("f64le"):
   every bit survives, including NaN payloads, infinities and signed
   zeros. The head holds the output's shape and the byte count of the
   tail that carries them (see {2 Wire payloads}). *)
let json_of_output shape n =
  Json.Obj [ ("shape", json_of_int_array shape); ("f64le", Json.Int (8 * n)) ]

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
    match elements shape with
    | Some n when n <= max_int / 16 ->
        Some (String.length (Json.to_string (json_of_output shape n)) + 1 + (8 * n))
    | _ -> Some max_int

(* The output a head describes, read from the [tail] bytes of [payload]
   that follow it. The tail's length is checked before anything is sized
   by the shape. *)
let dense_of_json ~tail:(payload, off, len) j =
  let* shape =
    match Json.member "shape" j with
    | Some s -> int_array_of_json ~what:"output shape" s
    | None -> Error "output missing shape"
  in
  match (elements shape, Json.member "f64le" j) with
  | None, _ -> Error "output shape is negative or too large"
  | Some n, Some (Json.Int bytes) ->
      if bytes <> 8 * n || len <> bytes then
        errf "output payload: %d bytes (head says %d) cannot carry %d float64 values" len
          bytes n
      else
        let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        for i = 0 to n - 1 do
          Bigarray.Array1.unsafe_set buf i
            (Int64.float_of_bits (String.get_int64_le payload (off + (8 * i))))
        done;
        Ok (Dense.of_buf buf shape)
  | Some _, Some _ -> Error "output f64le must be the payload's byte count"
  | Some _, None -> Error "output missing f64le byte count"

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

(* The message's head: any output's values follow it as its tail. *)
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
            match r.output with
            | None -> Json.Null
            | Some d -> json_of_output (Dense.shape d) (Dense.size d) );
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

let server_msg_of_json ~tail j =
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
            match (Json.member "output" j, tail) with
            | (None | Some Json.Null), _ -> Ok None
            | Some _, None -> Error "result output has no tail"
            | Some d, Some tail -> Result.map Option.some (dense_of_json ~tail d)
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

   A result's output is nearly all of its bytes, so it never passes
   through JSON, a string or an intermediate byte buffer. Its payload is
   the head, a single-line JSON document ([Json.to_string] escapes every
   newline), then ['\n'], then the tail: the output's values as
   little-endian IEEE-754 bytes in row-major order, as many as the head's
   ["f64le"] count states. The encoder writes the tail straight from the
   output's bigarray into the one allocation that becomes the frame; the
   decoder parses only the head and reads the tail from the received
   frame straight into a fresh tensor. Every other message is its head
   alone. *)

(* The exact length of [m] and a writer for it at an offset. *)
let render m =
  let head = Json.to_string (server_msg_to_json m) in
  let h = String.length head in
  match m with
  | Result { output = Some d; _ } ->
      let data = Dense.unsafe_data d in
      let n = Dense.size d in
      ( h + 1 + (8 * n),
        fun b off ->
          Bytes.blit_string head 0 b off h;
          Bytes.set b (off + h) '\n';
          let off = off + h + 1 in
          for i = 0 to n - 1 do
            Bytes.set_int64_le b (off + (8 * i))
              (Int64.bits_of_float (Bigarray.Array1.unsafe_get data i))
          done )
  | _ -> (h, fun b off -> Bytes.blit_string head 0 b off h)

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

let decode_server payload =
  match String.index_opt payload '\n' with
  | None -> decode payload (server_msg_of_json ~tail:None)
  | Some h ->
      let tail = Some (payload, h + 1, String.length payload - h - 1) in
      match decode (String.sub payload 0 h) (server_msg_of_json ~tail) with
      | Ok (Result { output = Some _; _ }) as ok -> ok
      | Ok _ -> Error "only a result's output may follow its head"
      | Error _ as e -> e
