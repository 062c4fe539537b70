(** The [distald] message vocabulary: single-line JSON documents carried
    inside {!Distal_support.Wire} frames.

    Client to server: [submit] (a full compilation/run request), [stats]
    and [shutdown]. Server to client: [result] (status [ok], [rejected]
    by admission control, or [error]), [stats] and [shutdown_ack]. All
    JSON goes through the shared {!Distal_support.Json} writer and
    parser. A result's output tensor is carried as
    [{"shape": [...], "f64le": "<base64>"}]: base64 of its raw
    little-endian IEEE-754 bytes, so served outputs survive the wire
    byte-identical and convert at memory speed. *)

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

val client_msg_to_json : client_msg -> Distal_support.Json.t
val client_msg_of_json : Distal_support.Json.t -> (client_msg, string) result
val server_msg_to_json : server_msg -> Distal_support.Json.t
val server_msg_of_json : Distal_support.Json.t -> (server_msg, string) result

val encode_client : client_msg -> string
val decode_client : string -> (client_msg, string) result
val encode_server : server_msg -> string
val decode_server : string -> (server_msg, string) result

val json_of_stats : Api.Stats.t -> Distal_support.Json.t
val stats_of_json : Distal_support.Json.t -> (Api.Stats.t, string) result

val json_of_dense : Distal_tensor.Dense.t -> Distal_support.Json.t

val dense_of_json : Distal_support.Json.t -> (Distal_tensor.Dense.t, string) result
(** Rejects, as an [Error], a shape with a negative extent or an element
    count that overflows, invalid base64, and a payload that is not 8
    bytes per element. *)
