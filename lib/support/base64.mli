(** RFC 4648 base64 with the standard alphabet and ['='] padding.

    The [distald] protocol ships tensor payloads as base64 of their raw
    little-endian IEEE-754 bytes ({!Distal_tensor.Dense.to_le_bytes}), so
    a reply reproduces every bit of the served output. *)

val encode : Bytes.t -> string

val decode : string -> (Bytes.t, string) result
(** Strict inverse of {!encode}: rejects lengths that are not a multiple
    of 4, characters outside the alphabet, misplaced padding and nonzero
    pad bits, so every byte string has exactly one accepted encoding. *)

val encoded_length : int -> int
(** Characters {!encode} produces for [n] bytes. *)
