(** The client side of the [distald] wire protocol: a blocking
    connection over a Unix-domain socket. [distalc --connect] and the
    serve tests sit on this. *)

type t

val connect : ?retries:int -> ?retry_interval:float -> string -> (t, string) result
(** Connect to a socket path, retrying [ENOENT]/[ECONNREFUSED] (a server
    still starting up) every [retry_interval] seconds, [retries] times
    (defaults 50 x 0.05 s). *)

val connect_exn : ?retries:int -> ?retry_interval:float -> string -> t
val close : t -> unit

val fresh_id : t -> int
(** Successive distinct request ids for this connection. *)

val send : t -> Protocol.client_msg -> (unit, string) result
val recv : t -> (Protocol.server_msg, string) result
(** Blocking read of one server message; EOF is an [Error]. *)

type response =
  | Ok_result of Protocol.reply
  | Rejected of { retry_after_s : float; reason : string }
  | Failed of string

val submit : t -> Protocol.submit -> (response, string) result
(** Send one submit and wait for its matching reply. *)

val submit_wait : t -> Protocol.submit -> (response, string) result
(** Like {!submit}, but sleeps out admission-control rejections
    ([retry_after_s]) and retries, up to 20 times. *)

val stats : t -> (int * int * Distal_support.Json.t, string) result
(** [(queue_depth, served, metrics)]. *)

val shutdown : t -> (unit, string) result
(** Ask the server to drain and exit; waits for the ack. *)
