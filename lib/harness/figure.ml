type cell = Value of float | Oom | Unavailable

type series = { name : string; cells : (int * cell) list }

type t = {
  id : string;
  title : string;
  unit_ : string;
  nodes : int list;
  series : series list;
}

let cell t ~series_name ~nodes =
  match List.find_opt (fun s -> s.name = series_name) t.series with
  | None -> Unavailable
  | Some s -> ( match List.assoc_opt nodes s.cells with Some c -> c | None -> Unavailable)

let value_exn t ~series_name ~nodes =
  match cell t ~series_name ~nodes with
  | Value v -> v
  | Oom -> invalid_arg (Printf.sprintf "%s@%d: OOM" series_name nodes)
  | Unavailable -> invalid_arg (Printf.sprintf "%s@%d: unavailable" series_name nodes)

let cell_to_string = function
  | Value v -> if v >= 100.0 then Printf.sprintf "%.0f" v else Printf.sprintf "%.1f" v
  | Oom -> "OOM"
  | Unavailable -> "-"

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    ("nodes," ^ String.concat "," (List.map (fun s -> s.name) t.series) ^ "\n");
  List.iter
    (fun n ->
      let cells =
        List.map
          (fun s ->
            match cell t ~series_name:s.name ~nodes:n with
            | Value v -> Printf.sprintf "%.6g" v
            | Oom | Unavailable -> "")
          t.series
      in
      Buffer.add_string buf (string_of_int n ^ "," ^ String.concat "," cells ^ "\n"))
    t.nodes;
  Buffer.contents buf

let save_csv ~dir t =
  let path = Filename.concat dir (t.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (to_csv t);
  close_out oc;
  path

module Json = Distal_support.Json

let cell_to_json = function
  | Value v -> Json.Float v
  | Oom -> Json.String "oom"
  | Unavailable -> Json.Null

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "distal-bench/v1");
      ("id", Json.String t.id);
      ("title", Json.String t.title);
      ("unit", Json.String t.unit_);
      ("nodes", Json.List (List.map (fun n -> Json.Int n) t.nodes));
      ( "series",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ( "cells",
                     Json.List
                       (List.map
                          (fun (n, c) ->
                            Json.Obj [ ("nodes", Json.Int n); ("value", cell_to_json c) ])
                          s.cells) );
                 ])
             t.series) );
    ]

let save_json ~dir t =
  let path = Filename.concat dir (t.id ^ ".json") in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (to_json t));
  output_char oc '\n';
  close_out oc;
  path

let print t =
  Printf.printf "== %s: %s (%s; higher is better) ==\n" t.id t.title t.unit_;
  let table =
    Distal_support.Table.create ~header:("nodes" :: List.map (fun s -> s.name) t.series)
  in
  List.iter
    (fun n ->
      Distal_support.Table.add_row table
        (string_of_int n
        :: List.map (fun s -> cell_to_string (cell t ~series_name:s.name ~nodes:n)) t.series))
    t.nodes;
  Distal_support.Table.print table;
  print_newline ()
