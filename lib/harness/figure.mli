(** Shared representation of a reproduced figure: one series per system,
    one cell per node count. *)

type cell =
  | Value of float
  | Oom  (** ran out of simulated memory (§7.1.2's 3-D algorithms) *)
  | Unavailable  (** configuration inexpressible at this node count *)

type series = { name : string; cells : (int * cell) list }

type t = {
  id : string;  (** e.g. "fig15a" *)
  title : string;
  unit_ : string;  (** "GFLOP/s/node" or "GB/s/node" *)
  nodes : int list;
  series : series list;
}

val cell : t -> series_name:string -> nodes:int -> cell
val value_exn : t -> series_name:string -> nodes:int -> float
val print : t -> unit
(** Render as an aligned table, one row per node count. *)

val to_csv : t -> string
(** Comma-separated rendering (header row, then one row per node count;
    OOM and unavailable cells are rendered as empty). *)

val save_csv : dir:string -> t -> string
(** Write [to_csv] to [dir/<id>.csv]; returns the path. *)

val to_json : t -> Distal_support.Json.t
(** Machine-readable rendering ([distal-bench/v1] schema): the figure's
    identity plus one object per series with its per-node-count cells
    (OOM cells read ["oom"], unavailable cells read [null]). *)

val save_json : dir:string -> t -> string
(** Write [to_json] (pretty-printed) to [dir/<id>.json]; returns the
    path. *)

val cell_to_string : cell -> string
