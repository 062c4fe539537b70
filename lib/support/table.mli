(** Plain-text aligned tables for the benchmark harness output. *)

type t

val create : header:string list -> t
val add_row : t -> string list -> unit
val print : t -> unit
(** Print to stdout with columns padded to the widest cell, header
    underlined. *)

val to_string : t -> string
(** The same rendering as {!print}, as a string. *)
