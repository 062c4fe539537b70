(** Communication planning: one step's fetches folded into wire messages.

    The executor discovers data movement one fetch at a time — for an
    over-decomposed cyclic distribution ([A[x%1]]-style notation) one fetch
    can gather thousands of single-element fragments. Real runtimes batch
    these into strided block transfers; this module does the same when a
    simulated step is priced.

    Each fetch lands in the simulation's {!table} under its step and its
    (tensor, source, destination) triple, carrying a {!payload}: the
    fragments it pulls from one owner, pre-merged once and shared by
    every task that makes the same fetch. The table numbers its payloads
    and stores a fetch as ints. When a step is priced, {!groups} turns
    its fetches into wire messages. A triple that received one payload
    sends it as it is. A triple that received several (two tasks of one
    processor fetching from the same owner) sends their union: adjacent
    rectangles are merged, and whatever cannot be merged (a cyclic
    pattern that is contiguous in owner-space but strided in
    index-space) stays an explicit strided run — one message carrying
    several disjoint rectangles, priced with a per-fragment packing
    overhead ({!Distal_machine.Cost_model.strided_copy_time}). Messages
    carrying the same payload from the same source are then bundled
    into one broadcast group: first by payload id, then by value.

    Planning never changes which bytes land where: the groups move exactly
    the same multiset of (tensor, element, src, dst) as the fetched
    fragments. One deliberate modelling choice: payloads are merged per
    destination {e before} broadcast grouping, so two receivers share a
    group only when their merged payloads are identical. A receiver that
    needs a strict subset of another's data is priced as its own (smaller)
    message rather than riding a broadcast. *)

module Rect = Distal_tensor.Rect

type payload = {
  id : int;  (** its number in the {!table} that made it *)
  pieces : Rect.t list;  (** disjoint fragments as discovered *)
  merged : Rect.t list;  (** the same elements with adjacent rects unioned *)
  hull : Rect.t option;  (** the bounding box of [merged]; [None] when empty *)
  nfrag : int;  (** [List.length pieces] *)
  volume : int;  (** total elements over [pieces] *)
}
(** What one fetch pulls from one owner. The executor builds each payload
    once per distinct (tensor, footprint, owner set) and shares it across
    tasks and steps, so the per-fragment merging work is not repeated per
    receiver, and a broadcast's receivers carry one id. *)

val merge_rects : Rect.t list -> Rect.t list
(** Union adjacent rects of a disjoint set to a fixed point: rectangles
    that agree on every dimension but one and abut in that dimension are
    hulled together, sweeping dimensions innermost-first until nothing
    shrinks. The result is in canonical (lexicographic lo/hi) order. *)

val compare_rects : Rect.t list -> Rect.t list -> int
(** Lexicographic order on canonical rect lists; [0] iff equal payloads. *)

type table
(** A simulation's fetches, two ints each, per step and (tensor, source,
    destination), and the payloads they carry, numbered from 0. Tensors
    are numbered by their index in [names], steps from 0. *)

val table : names:string array -> steps:int -> table

val payload : table -> Rect.t list -> payload
(** [payload tab pieces] from disjoint fragments: computes [merged],
    [hull], [nfrag] and [volume], and takes the table's next id. *)

val add : table -> step:int -> t:int -> src:int -> dst:int -> payload -> unit
(** Record that [dst] fetches [payload] from [src] at [step]; [t] numbers
    the payload's tensor. Processors are linear indices below [2{^22}].
    @raise Invalid_argument otherwise, for a tensor or step the table
    does not have, or for a payload another table made. *)

val fragments : table -> int
(** Fragments added so far, summed over payloads ([nfrag]). *)

type group = Distal_obs.Critical_path.copy = {
  tensor : string;
  rects : Rect.t list;
  fragments : int;
  src : int;
  bytes : float;
  receivers : int array;
}
(** One payload sent from one source: a point-to-point message, or a
    broadcast when it has several receivers. A priced step keeps its
    groups as its wire payloads ({!Distal_obs.Critical_path.copy}). *)

val groups : table -> step:int -> group list
(** The wire messages of [step], grouped into broadcasts: one message
    per (tensor, src, dst) triple, carrying the union of that triple's
    payloads as one block or strided run. The order is canonical — by
    tensor name, src, then payload value — whatever order the fetches
    arrived in, and a group's receivers ascend. Messages are compared by
    payload id before value, so a broadcast costs no rect comparison,
    and equal values from distinct payloads share a group. Building them
    allocates the groups, their receiver arrays and the unions of
    multi-payload triples, nothing per message. *)
