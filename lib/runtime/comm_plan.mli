(** Communication planning: one step's fetches folded into wire messages.

    The executor discovers data movement one fetch at a time — for an
    over-decomposed cyclic distribution ([A[x%1]]-style notation) one fetch
    can gather thousands of single-element fragments. Real runtimes batch
    these into strided block transfers; this module does the same when a
    simulated step is priced.

    Each fetch lands in its step's {!table} under its (tensor, source,
    destination) triple, carrying a {!payload}: the fragments it pulls from
    one owner, pre-merged once and shared by every task that makes the same
    fetch. When the step is priced, {!groups} turns the table into wire
    messages. A triple that received one payload sends it as it is. A
    triple that received several (two tasks of one processor fetching from
    the same owner) sends their union: adjacent rectangles are merged, and
    whatever cannot be merged (a cyclic pattern that is contiguous in
    owner-space but strided in index-space) stays an explicit strided run —
    one message carrying several disjoint rectangles, priced with a
    per-fragment packing overhead
    ({!Distal_machine.Cost_model.strided_copy_time}). Messages carrying the
    same payload from the same source are then bundled into one broadcast
    group.

    Planning never changes which bytes land where: the groups move exactly
    the same multiset of (tensor, element, src, dst) as the fetched
    fragments. One deliberate modelling choice: payloads are merged per
    destination {e before} broadcast grouping, so two receivers share a
    group only when their merged payloads are identical. A receiver that
    needs a strict subset of another's data is priced as its own (smaller)
    message rather than riding a broadcast. *)

module Rect = Distal_tensor.Rect

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

val payload : string -> Rect.t list -> payload
(** [payload tensor pieces] from disjoint fragments: computes [merged],
    [nfrag] and [volume]. *)

val merge_rects : Rect.t list -> Rect.t list
(** Union adjacent rects of a disjoint set to a fixed point: rectangles
    that agree on every dimension but one and abut in that dimension are
    hulled together, sweeping dimensions innermost-first until nothing
    shrinks. The result is in canonical (lexicographic lo/hi) order. *)

val compare_rects : Rect.t list -> Rect.t list -> int
(** Lexicographic order on canonical rect lists; [0] iff equal payloads. *)

type table
(** One step's fetches, keyed by (tensor, source, destination). *)

val table : unit -> table

val add : table -> t:int -> src:int -> dst:int -> payload -> unit
(** Record that [dst] fetches [payload] from [src]; [t] numbers the
    payload's tensor. Processors are linear indices below [2{^22}].
    @raise Invalid_argument otherwise. *)

val fragments : table -> int
(** Fragments added so far, summed over payloads ([nfrag]). *)

type group = {
  tensor : string;
  rects : Rect.t list;
      (** the payload, in canonical order; a single-element list is a
          plain contiguous block copy *)
  fragments : int;  (** [List.length rects] *)
  src : int;
  bytes : float;  (** payload bytes, 8 per element *)
  receivers : int array;  (** destinations, ascending *)
}
(** One payload sent from one source: a point-to-point message, or a
    broadcast when it has several receivers. *)

val groups : table -> group list
(** The step's wire messages, grouped into broadcasts: one message per
    (tensor, src, dst) triple, carrying the union of that triple's
    payloads as one block or strided run. The order is canonical — by
    tensor name, src, then payload — whatever order the fetches arrived
    in. Building them allocates the groups, their receiver arrays and
    the unions of multi-payload triples, nothing per message: a step's
    messages are formed and ordered in per-domain scratch arrays. *)

val describe : Rect.t list -> string
(** Human-readable payload label for profiles: the rectangle itself for a
    contiguous transfer, or the first rectangle plus a fragment count for a
    strided run. *)
