(** Communication planning: coalesce per-piece transfers into block copies.

    The executor discovers data movement one piece at a time — for an
    over-decomposed cyclic distribution ([A[x%1]]-style notation) that means
    thousands of single-element fragments per step, each of which would be
    priced as its own message. Real runtimes batch these into strided block
    transfers; this pass does the same at planning time. Fragments that
    share a (tensor, source, destination) triple become one transfer:
    adjacent rectangles are unioned into larger rectangles, and whatever
    cannot be unioned (a cyclic pattern that is contiguous in owner-space
    but strided in index-space) stays as an explicit strided run — one
    transfer carrying several disjoint rectangles, priced as one message
    with a per-fragment packing overhead
    ({!Distal_machine.Cost_model.strided_copy_time}).

    Planning never changes which bytes land where: a coalesced plan moves
    exactly the same multiset of (tensor, element, src, dst) as the raw
    fragments. One deliberate modelling choice: transfers are merged per
    destination {e before} broadcast grouping, so two receivers share a
    broadcast group only when their merged payloads are identical. A
    receiver that needs a strict subset of another's data is priced as its
    own (smaller) message rather than riding a broadcast. *)

module Rect = Distal_tensor.Rect
module Cost = Distal_machine.Cost_model

type payload = {
  tensor : string;
  pieces : Rect.t list;  (** disjoint fragments as discovered *)
  merged : Rect.t list;  (** the same elements with adjacent rects unioned *)
  nfrag : int;  (** [List.length pieces] *)
  volume : int;  (** total elements over [pieces] *)
}
(** What one fetch pulls from one owner. The executor builds each payload
    once per distinct (tensor, footprint, owner set) and shares it across
    tasks and steps, so the per-fragment merging work is not repeated per
    receiver. *)

type raw = {
  payload : payload;
  src : int;  (** linear index of the owning processor *)
  dst : int;  (** linear index of the receiving processor *)
  link : Cost.link;
}
(** One batch of fragments as discovered by the executor. *)

val batch :
  tensor:string -> src:int -> dst:int -> link:Cost.link -> Rect.t list -> raw
(** Make a batch from disjoint fragments: computes [merged], [nfrag] and
    [volume]. *)

val merge_rects : Rect.t list -> Rect.t list
(** Union adjacent rects of a disjoint set to a fixed point: rectangles
    that agree on every dimension but one and abut in that dimension are
    hulled together, sweeping dimensions innermost-first until nothing
    shrinks. The result is in canonical (lexicographic lo/hi) order. *)

val compare_rects : Rect.t list -> Rect.t list -> int
(** Lexicographic order on canonical rect lists; [0] iff equal payloads. *)

type xfer = {
  tensor : string;
  src : int;
  dst : int;
  link : Cost.link;
  rects : Rect.t list;
      (** the merged payload, in canonical order; a single-element list is
          a plain contiguous block copy *)
  fragments : int;  (** [List.length rects] *)
  volume : int;  (** total elements over [rects] *)
}
(** One planned transfer: everything [src] sends to [dst] for [tensor] in
    one step, as a single (possibly strided) message. *)

val coalesce : raw list -> xfer list
(** Merge raw batches into maximal block transfers, one per (tensor, src,
    dst) triple. Input order is irrelevant; the result is deterministically
    sorted by (tensor, src, payload, dst), so transfers broadcasting the
    same payload from the same source sit adjacent with ascending
    destinations. *)

val uncoalesced : raw list -> xfer list
(** The identity plan: one single-rectangle transfer per raw fragment, in
    the same deterministic order as {!coalesce} uses. Reproduces
    pre-planning behaviour ([~coalesce:false]). *)

val describe : Rect.t list -> string
(** Human-readable payload label for profiles: the rectangle itself for a
    contiguous transfer, or the first rectangle plus a fragment count for a
    strided run. *)
