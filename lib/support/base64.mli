(** RFC 4648 base64 with the standard alphabet and ['='] padding.

    The [distald] protocol ships tensor payloads as base64 of their raw
    little-endian IEEE-754 bytes, so a reply reproduces every bit of the
    served output. {!encode_f64} and {!decode_f64} move such a payload
    between a float64 bigarray and a wire buffer in one pass, producing
    and accepting exactly what {!encode} and {!decode} do for the same
    bytes. *)

val encode : Bytes.t -> string

val decode : string -> (Bytes.t, string) result
(** Strict inverse of {!encode}: rejects lengths that are not a multiple
    of 4, characters outside the alphabet, misplaced padding and nonzero
    pad bits, so every byte string has exactly one accepted encoding. *)

val encoded_length : int -> int
(** Characters {!encode} produces for [n] bytes. *)

(** {2 Float64 payloads} *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val f64_length : int -> int
(** Characters {!encode_f64} writes for [n] floats: [encoded_length (8 * n)]. *)

val encode_f64 : buf -> Bytes.t -> int -> unit
(** [encode_f64 b out off] writes the base64 of [b]'s elements as 8
    little-endian bytes each, [f64_length (dim b)] characters at [off].
    @raise Invalid_argument when [out] has no room for them. *)

val decode_f64 : string -> int -> int -> buf -> (unit, string) result
(** [decode_f64 s off len b] reads the [len] characters of [s] at [off]
    into [b]: the inverse of {!encode_f64}, with {!decode}'s validation.
    [Error] when the span is not exactly the encoding of [dim b] floats;
    [b]'s contents are then unspecified.
    @raise Invalid_argument when the span lies outside [s]. *)
