(** The [distald] message vocabulary: single-line JSON documents carried
    inside {!Distal_support.Wire} frames.

    Client to server: [submit] (a full compilation/run request), [stats]
    and [shutdown]. Server to client: [result] (status [ok], [rejected]
    by admission control, or [error]), [stats] and [shutdown_ack]. All
    JSON goes through the shared {!Distal_support.Json} writer and
    parser. A result that carries an output is the one message with a
    binary tail: its payload is the JSON head, which holds
    [{"shape": [...], "f64le": <bytes>}], then ['\n'], then exactly that
    many bytes: the output's IEEE-754 values, little-endian, in
    row-major order. Served outputs survive the wire byte-identical. The
    tail moves between the output's bigarray and the frame in one pass
    on each side; only the head is rendered or parsed as a tree. Every
    other message is its JSON document alone. *)

module Api = Distal.Api

type tensor_decl = { td_name : string; td_shape : int array; td_dist : string }

type submit = {
  id : int;  (** client-chosen; echoed on the matching result *)
  machine_dims : int array;
  machine_node_factors : int array option;
  gpu : bool;
  mem_per_proc : float option;  (** default: 256 GB CPU / 16 GB GPU *)
  virtual_grid : int array option;
  tensors : tensor_decl list;
  stmt : string;
  schedule : string;
  mode : Api.Exec.mode;
  seed : int;  (** names the deterministic input stream ([random_inputs]) *)
  faults : string option;  (** a {!Api.Fault.parse} plan, if any *)
}

val submit :
  ?node_factors:int array ->
  ?gpu:bool ->
  ?mem_per_proc:float ->
  ?virtual_grid:int array ->
  ?mode:Api.Exec.mode ->
  ?seed:int ->
  ?faults:string ->
  id:int ->
  machine_dims:int array ->
  tensors:tensor_decl list ->
  stmt:string ->
  schedule:string ->
  unit ->
  submit

type client_msg = Submit of submit | Stats | Shutdown

type reply = {
  rid : int;
  plan_cached : bool;
  result_cached : bool;
  batch : int;  (** same-fingerprint requests that shared one compile *)
  stats : Api.Stats.t;
  output : Distal_tensor.Dense.t option;
}

type server_msg =
  | Result of reply
  | Rejected of { rid : int; retry_after_s : float; reason : string }
  | Failed of { rid : int; reason : string }
  | StatsReply of { queue_depth : int; served : int; metrics : Distal_support.Json.t }
  | ShutdownAck

val to_request : submit -> (Api.request, string) result
(** Materialize the machine and tensor declarations; fails on a bad
    distribution or grid. *)

val encode_client : client_msg -> string
val decode_client : string -> (client_msg, string) result

val encode_server : server_msg -> string
(** The message's payload, sized exactly and written in one allocation;
    an output's tail goes straight from its bigarray into it. *)

val frame_server : Bytes.t -> server_msg -> Bytes.t * int
(** The {!Distal_support.Wire} frame of {!encode_server}'s payload,
    written into the given buffer when it fits, else into one fresh
    allocation ({!Distal_support.Wire.frame}): the buffer and the
    frame's length. @raise Invalid_argument beyond the frame limit,
    before allocating. *)

val decode_server : string -> (server_msg, string) result
(** Splits the payload at its first ['\n'], parses only the head (keys
    in any order, any JSON escape) and reads an output's tail from the
    payload straight into a fresh tensor. Rejects, as an [Error], a tail
    that is not 8 bytes per element or not the head's ["f64le"] count,
    an output without a tail, a tail after a message with no output, and
    an output shape with a negative extent or an element count that
    overflows. *)

val output_length : int array -> int option
(** The exact bytes an output of this shape adds to a result reply: its
    [{"shape":[...],"f64le":<bytes>}] in the head, the ['\n'] and 8
    bytes per element. Saturates at [max_int] when the element count
    overflows. [None] for a negative extent. *)

val json_of_stats : Api.Stats.t -> Distal_support.Json.t
