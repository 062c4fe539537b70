(** Bounds analysis (§6.2).

    Given the provenance graph and a partial assignment of live loop
    variables, computes the hyper-rectangle of coordinates a tensor access
    can touch. These rects drive partition creation and the communication
    the runtime performs at each communicate point. The result is a sound
    superset: guard-excluded boundary iterations may be included. *)

val access_rect :
  Provenance.t ->
  env:(Ident.t -> int option) ->
  shape:int array ->
  Expr.access ->
  Distal_tensor.Rect.t
(** Footprint of one access: per index variable, its interval clipped to
    the tensor's extent in that dimension.
    @raise Invalid_argument when the access's index count differs from
    the rank of [shape]. *)

val tensor_footprint :
  Provenance.t ->
  env:(Ident.t -> int option) ->
  stmt:Expr.stmt ->
  shape:int array ->
  string ->
  Distal_tensor.Rect.t
(** Hull of the footprints of every access of the named tensor in the
    statement. *)

val footprint_fn :
  Provenance.t ->
  slot:(Ident.t -> int option) ->
  stmt:Expr.stmt ->
  shape:int array ->
  string ->
  int array ->
  Distal_tensor.Rect.t
(** {!tensor_footprint} compiled once for environments held in an int
    array (see {!Provenance.interval_fn}): the runtime's task walk keeps
    its loop variables in integer slots and calls this on every footprint
    it has not seen yet. *)
