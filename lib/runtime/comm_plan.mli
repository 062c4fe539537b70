(** Communication planning: one step's fetches folded into wire messages.

    The executor discovers data movement one fetch at a time — for an
    over-decomposed cyclic distribution ([A[x%1]]-style notation) one fetch
    can gather thousands of single-element fragments. Real runtimes batch
    these into strided block transfers; this module does the same when a
    simulated step is priced.

    Each fetch lands in the simulation's {!table} under its step and its
    (tensor, source, destination) triple, carrying a payload id (see
    {!payload}): the fragments it pulls from one owner, pre-merged once
    and shared by every task that makes the same fetch. The table keeps
    its payloads and fetches in flat int arrays, so a simulation's
    communication state is a handful of arrays, not per-fragment
    objects. When a step is priced, {!plan} turns its fetches into wire
    messages. A triple that received one payload sends it as it is. A
    triple that received several (two tasks of one processor fetching
    from the same owner) sends their union: adjacent rectangles are
    merged, and whatever cannot be merged (a cyclic pattern that is
    contiguous in owner-space but strided in index-space) stays an
    explicit strided run — one message carrying several disjoint
    rectangles, priced with a per-fragment packing overhead
    ({!Distal_machine.Cost_model.strided_copy_time}). Messages carrying
    the same payload from the same source are then bundled into one
    broadcast group: first by payload id, then by value. Rect lists are
    built only for a step's {!copies}, which a profile keeps.

    Planning never changes which bytes land where: the groups move exactly
    the same multiset of (tensor, element, src, dst) as the fetched
    fragments. One deliberate modelling choice: payloads are merged per
    destination {e before} broadcast grouping, so two receivers share a
    group only when their merged payloads are identical. A receiver that
    needs a strict subset of another's data is priced as its own (smaller)
    message rather than riding a broadcast. *)

module Rect = Distal_tensor.Rect

val merge_rects : Rect.t list -> Rect.t list
(** Union adjacent rects of a disjoint set to a fixed point: rectangles
    that agree on every dimension but one and abut in that dimension are
    hulled together, sweeping dimensions innermost-first until nothing
    shrinks. The result is in canonical (lexicographic lo/hi) order.
    This is the merge payloads and unions go through, on rects copied
    into an int array. *)

type table
(** A simulation's payloads and fetches. Tensors are numbered by their
    index in [names], steps and payloads from 0. *)

val table : names:string array -> steps:int -> table

val release : table -> unit
(** The table is done: the next table made on this domain reuses its
    payload arrays. It must not be used again. *)

val payload : table -> Rect.t list -> int
(** [payload tab pieces]: a new payload of disjoint fragments, in
    discovery order, and its id. What one fetch pulls from one owner:
    the executor makes each payload once per distinct (tensor,
    footprint, owner set) and shares it across tasks and steps, so the
    per-fragment merging work is not repeated per receiver, and a
    broadcast's receivers carry one id. The table keeps, in int arrays
    addressed by the id, the pieces (2 × rank ints each), the merged
    rects (the pieces when nothing merges), the hull of the merged rects,
    the fragment count and the volume. *)

val volume : table -> int -> int
(** Elements over a payload's pieces. *)

val pieces : table -> int -> Rect.t list
(** A payload's pieces, in discovery order, as new rects. *)

val add : table -> step:int -> t:int -> src:int -> dst:int -> int -> unit
(** [add tab ~step ~t ~src ~dst id]: [dst] fetches payload [id] from
    [src] at [step]; [t] numbers the payload's tensor. Processors are
    linear indices below [2{^22}].
    @raise Invalid_argument otherwise, or for a tensor, step or payload
    the table does not have. *)

val fragments : table -> int
(** Fragments added so far, summed over the payloads' pieces. *)

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

type groups
(** The groups of the step {!plan} last grouped on the calling domain,
    held in that domain's working arrays until its next {!plan}. *)

val plan : table -> step:int -> groups
(** The wire messages of [step], grouped into broadcasts: one message
    per (tensor, src, dst) triple, carrying the union of that triple's
    payloads as one block or strided run. The order is canonical — by
    tensor name, src, then payload value — whatever order the fetches
    arrived in, and a group's receivers ascend. Messages are compared by
    payload id before value, so a broadcast costs no rect comparison,
    and equal values from distinct payloads share a group. Unions and
    comparisons run on the table's int arrays, and grouping allocates
    nothing per message or group. *)

val count : groups -> int

val src : groups -> int -> int
(** [src gs g]: group [g]'s source, for [g] below [count gs]. *)

val nfrag : groups -> int -> int
(** The rects (fragments) group [g] carries. *)

val volume_of : groups -> int -> int
(** The elements each receiver of group [g] gets (its bytes are 8 per
    element). *)

val receivers : groups -> int -> int
(** Group [g]'s receiver count. *)

val receiver : groups -> int -> int -> int
(** [receiver gs g r]: its [r]-th receiver, ascending in [r]. *)

val copies : table -> groups -> group list
(** The groups as records, in order, their rects built from the arrays:
    the profile's wire payloads. *)
