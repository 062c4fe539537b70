(** Index variables.

    Index variables are interned strings. [fresh] derives new names during
    scheduling (e.g. the result variable of a rotate) without colliding with
    user-chosen names. *)

type t = string

val compare : t -> t -> int
val equal : t -> t -> bool
val fresh : string -> t
(** [fresh "k"] returns ["k'1"], ["k'2"], ... (the quote cannot appear in
    parsed source names, so generated names never collide). One counter
    serves every domain, so concurrent calls never return the same
    name. *)
