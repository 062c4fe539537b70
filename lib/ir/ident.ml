type t = string

let compare = String.compare
let equal = String.equal

(* Shared by every domain: [Auto] compiles candidates on pool lanes. *)
let counter = Atomic.make 0

let fresh base = Printf.sprintf "%s'%d" base (Atomic.fetch_and_add counter 1 + 1)
