(** Spatial index over a set of tiles (rect, payload).

    The runtime's hot lookup is "which tiles of this tensor intersect this
    footprint rect?". A linear scan is fine for blocked distributions (one
    tile per processor) but collapses for block-cyclic layouts, where the
    tile count grows with the tensor size divided by the block size. This
    index keeps, per dimension, the sorted distinct tile boundaries and a
    slab -> tiles bucket table, so a query binary-searches each dimension,
    picks the most selective one, and only touches candidate tiles.

    Queries return results in insertion order, making the index a drop-in
    replacement for a filter over the original tile list. *)

type 'a t

type cursor
(** Mutable per-query scratch (visited stamps). Code that queries one
    index from several domains must give each domain its own cursor. A
    cursor grows on demand and may be shared across any number of
    indexes (of any size) within one domain. *)

val cursor : unit -> cursor
(** A fresh, empty cursor. *)

val build : (Rect.t * 'a) list -> 'a t
(** Index the given tiles. Tiles may overlap (replicated distributions
    store one entry per distinct tile, so they usually do not). All rects
    must have the same dimensionality. *)

val length : 'a t -> int
(** Number of indexed tiles. *)

val tiles : 'a t -> (Rect.t * 'a) list
(** The indexed tiles, in insertion order. *)

val query : cursor:cursor -> 'a t -> Rect.t -> (Rect.t * 'a) list
(** [query t rect] returns [(piece, payload)] for every indexed tile whose
    intersection [piece] with [rect] is non-empty, in insertion order —
    exactly [List.filter_map] of the intersection over {!tiles}, but
    touching only candidate tiles. Concurrent queries against the same
    index must pass distinct cursors. *)
