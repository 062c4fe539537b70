type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }
let add_row t row = t.rows <- row :: t.rows

let to_string t =
  let buf = Buffer.create 256 in
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> width.(i) <- max width.(i) (String.length cell)))
    all;
  let pad i cell = cell ^ String.make (width.(i) - String.length cell) ' ' in
  let add_row r =
    Buffer.add_string buf ("  " ^ String.concat "  " (List.mapi pad r) ^ "\n")
  in
  add_row t.header;
  let rule = List.mapi (fun i _ -> String.make width.(i) '-') t.header in
  add_row rule;
  List.iter add_row rows;
  Buffer.contents buf

let print t = print_string (to_string t)
