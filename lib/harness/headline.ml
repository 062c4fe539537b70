type row = { comparison : string; paper : string; measured : float }

let distal_best fig ~nodes =
  List.fold_left
    (fun acc (s : Figure.series) ->
      if String.length s.name >= 4 && String.sub s.name 0 4 = "our-" then
        match List.assoc_opt nodes s.cells with
        | Some (Figure.Value v) -> max acc v
        | _ -> acc
      else acc)
    0.0 fig.Figure.series

let value fig name ~nodes =
  match Figure.cell fig ~series_name:name ~nodes with
  | Figure.Value v -> v
  | _ -> nan

let compute ~fig15a ~fig16 ~nodes =
  let f16a, f16b, f16c, f16d = fig16 in
  let best15 = distal_best fig15a ~nodes in
  let gemm name paper =
    { comparison = "gemm vs " ^ name; paper; measured = best15 /. value fig15a name ~nodes }
  in
  let ho fig kernel paper =
    {
      comparison = kernel ^ " vs ctf";
      paper;
      measured = value fig "distal-cpu" ~nodes /. value fig "ctf-cpu" ~nodes;
    }
  in
  [
    gemm "scalapack" ">= 1.25x";
    gemm "ctf" ">= 1.25x";
    gemm "cosma" ">= 0.95x";
    ho f16a "ttv" "1.8x-3.7x band";
    ho f16b "innerprod" "1.8x-3.7x band";
    ho f16c "ttm" "45.7x outlier";
    ho f16d "mttkrp" "1.8x-3.7x band";
  ]

module Json = Distal_support.Json

let to_json ~nodes rows =
  Json.Obj
    [
      ("schema", Json.String "distal-bench/v1");
      ("id", Json.String "headline");
      ("nodes", Json.Int nodes);
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("comparison", Json.String r.comparison);
                   ("paper", Json.String r.paper);
                   ( "measured",
                     if Float.is_finite r.measured then Json.Float r.measured
                     else Json.Null );
                 ])
             rows) );
    ]

let save_json ~file ~nodes rows =
  let oc = open_out file in
  output_string oc (Json.to_string_pretty (to_json ~nodes rows));
  output_char oc '\n';
  close_out oc

let print rows =
  print_endline "== headline: paper-claimed vs measured speedups ==";
  let table = Distal_support.Table.create ~header:[ "comparison"; "paper"; "measured" ] in
  List.iter
    (fun r ->
      Distal_support.Table.add_row table
        [ r.comparison; r.paper; Printf.sprintf "%.2fx" r.measured ])
    rows;
  Distal_support.Table.print table;
  print_newline ()
