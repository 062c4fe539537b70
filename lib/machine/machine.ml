module Ints = Distal_support.Ints

type proc_kind = Cpu | Gpu

type t = {
  dims : int array;
  node_factors : int array;
  kind : proc_kind;
  mem_per_proc : float;
}

let grid ?node_factors ?(kind = Cpu) ?(mem_per_proc = 256e9) dims =
  if Array.length dims = 0 then invalid_arg "Machine.grid: a machine needs a dimension";
  if not (Array.for_all (fun d -> d > 0) dims) then
    invalid_arg "Machine.grid: dimensions must be positive";
  let node_factors =
    match node_factors with
    | None -> Array.map (fun _ -> 1) dims
    | Some f ->
        if Array.length f <> Array.length dims then
          invalid_arg "Machine.grid: node_factors rank differs from dims";
        Array.iteri
          (fun d fd ->
            if fd <= 0 || dims.(d) mod fd <> 0 then
              invalid_arg "Machine.grid: node factors must divide their dimension")
          f;
        Array.copy f
  in
  { dims = Array.copy dims; node_factors; kind; mem_per_proc }

let hierarchical ~node_dims ~proc_dims ~kind ~mem_per_proc =
  let ones = Array.map (fun _ -> 1) node_dims in
  grid ~kind ~mem_per_proc
    ~node_factors:(Array.append ones proc_dims)
    (Array.append node_dims proc_dims)

let with_ppn ?(kind = Gpu) ?(mem_per_proc = 16e9) dims ~ppn =
  let n = Array.length dims in
  let factors = Array.make n 1 in
  let rem = ref ppn in
  (* Absorb the per-node processor count into trailing dimensions. *)
  for d = n - 1 downto 0 do
    if !rem > 1 then begin
      let f = ref 1 in
      for c = 2 to min dims.(d) !rem do
        if dims.(d) mod c = 0 && !rem mod c = 0 && c > !f then f := c
      done;
      factors.(d) <- !f;
      rem := !rem / !f
    end
  done;
  if !rem > 1 then grid ~kind ~mem_per_proc dims (* no block decomposition *)
  else grid ~kind ~mem_per_proc ~node_factors:factors dims

let num_procs t = Ints.prod t.dims
let dims t = Array.copy t.dims
let dim t = Array.length t.dims

let node_dims t = Array.mapi (fun d n -> n / t.node_factors.(d)) t.dims
let num_nodes t = Ints.prod (node_dims t)

let proc_coords t =
  let acc = ref [] in
  Ints.iter_box t.dims (fun c -> acc := c :: !acc);
  List.rev !acc

let linearize t coord = Ints.linearize ~dims:t.dims coord
let delinearize t idx = Ints.delinearize ~dims:t.dims idx

let node_of t coord =
  Ints.linearize ~dims:(node_dims t)
    (Array.mapi (fun d c -> c / t.node_factors.(d)) coord)

let same_node t a b = node_of t a = node_of t b
let mem_per_proc_bytes t = t.mem_per_proc
let kind t = t.kind

let to_string t =
  let kind = match t.kind with Cpu -> "CPU" | Gpu -> "GPU" in
  Printf.sprintf "Machine(%s grid=%s node_factors=%s)" kind (Ints.to_string t.dims)
    (Ints.to_string t.node_factors)
