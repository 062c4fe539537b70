(** Length-prefixed framing for the [distald] wire protocol.

    A frame is [%08d\n] (payload byte length), the payload, and a
    trailing newline. A payload starts with one JSON document on a
    single line; a result that carries an output follows it with a
    newline and the output's raw bytes. The length prefix means the
    binary tail needs no escaping. See [lib/serve/protocol.mli] for the
    message vocabulary carried inside frames. *)

val max_frame : int
(** Hard bound on payload size (64 MiB); both ends reject beyond it. *)

val encode : string -> string
(** The full frame for a payload.
    @raise Invalid_argument beyond {!max_frame}. *)

val frame : Bytes.t -> int -> (Bytes.t -> int -> unit) -> Bytes.t * int
(** [frame buf n write] writes the frame of an [n]-byte payload, which
    [write b off] puts at [off] of [b], at the start of [buf] when it
    fits there, else of a fresh buffer of exactly its size: the buffer
    and the frame's length. No copy of the payload and, beyond that
    buffer, only a small constant is allocated, so a caller that hands
    the buffer back once the frame is sent frames every reply in the
    same bytes.
    @raise Invalid_argument beyond {!max_frame}, before allocating. *)

val send : Unix.file_descr -> string -> unit
(** Write one frame, handling short writes and [EINTR].
    @raise Unix.Unix_error as [Unix.write] does (e.g. [EPIPE] when the
    peer is gone and [SIGPIPE] is ignored). *)

val recv : Unix.file_descr -> (string option, string) result
(** Read one frame. [Ok None] is a clean EOF on a frame boundary;
    [Error] reports a malformed header or a peer that died mid-frame. *)

(** {2 Incremental decoding}

    For select-driven loops that read whatever bytes are available and
    extract any complete frames. *)

type decoder

val decoder : unit -> decoder
val feed : decoder -> bytes -> int -> int -> unit

val next : decoder -> (string option, string) result
(** The next complete payload, [Ok None] when more bytes are needed,
    [Error] on a malformed header (the connection should be dropped). *)

val pending : decoder -> bool
(** Whether undecoded bytes are buffered (a partial frame at EOF means
    the peer died mid-request). *)
