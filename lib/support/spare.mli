(** What a finished computation gives back for the next one on the same
    domain: a few numbered slots per domain, each empty or holding one
    value. A simulation keeps its flat tables here when it is done, so
    the next simulation on the domain starts from arrays already grown
    instead of growing its own on the major heap. *)

type 'a t

val create : int -> 'a t
(** [create n]: slots [0 .. n-1] on every domain, empty. *)

val take : 'a t -> int -> 'a option
(** Empty slot [i] of the calling domain, returning what it held; [None]
    for a slot past [n]. *)

val give : 'a t -> int -> 'a -> unit
(** Fill slot [i] of the calling domain; a slot past [n] keeps
    nothing. *)
