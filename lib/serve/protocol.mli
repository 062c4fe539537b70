(** The [distald] message vocabulary: single-line JSON documents carried
    inside {!Distal_support.Wire} frames.

    Client to server: [submit] (a full compilation/run request), [stats]
    and [shutdown]. Server to client: [result] (status [ok], [rejected]
    by admission control, or [error]), [stats] and [shutdown_ack]. All
    JSON goes through the shared {!Distal_support.Json} writer and
    parser. A result's output tensor is carried as
    [{"shape": [...], "f64le": "<base64>"}]: base64 of its raw
    little-endian IEEE-754 bytes, so served outputs survive the wire
    byte-identical. The payload moves between the output's bigarray and
    the frame in one pass on each side ({!Distal_support.Base64.encode_f64}
    and [decode_f64]); only the JSON around it is rendered or parsed as
    a tree. *)

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
(** The message's JSON document, sized exactly and written in one
    allocation; an output's payload goes straight from its bigarray into
    it. *)

val frame_server : Bytes.t -> server_msg -> Bytes.t * int
(** The {!Distal_support.Wire} frame of {!encode_server}'s document,
    written into the given buffer when it fits, else into one fresh
    allocation ({!Distal_support.Wire.frame}): the buffer and the
    frame's length. @raise Invalid_argument beyond the frame limit,
    before allocating. *)

val decode_server : string -> (server_msg, string) result
(** Accepts keys in any order, any whitespace and any JSON escape; an
    output's payload is decoded from the document's bytes straight into
    a fresh tensor. Rejects, as an [Error], an output shape with a
    negative extent or an element count that overflows, invalid base64,
    and a payload that is not 8 bytes per element. *)

val output_length : int array -> int option
(** The exact bytes an output of this shape takes in a result reply,
    [{"shape":[...],"f64le":"<base64>"}]; saturates at [max_int] when
    the element count overflows. [None] for a negative extent. *)

val json_of_stats : Api.Stats.t -> Distal_support.Json.t
