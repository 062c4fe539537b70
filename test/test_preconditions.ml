(* Preconditions on the simulator's path raise [Invalid_argument], which
   survives [-noassert]: one case per guarded function. *)

module Rect = Distal_tensor.Rect
module Ints = Distal_support.Ints
module Machine = Distal_machine.Machine
module Distnot = Distal_ir.Distnot
module Provenance = Distal_ir.Provenance
module Bounds = Distal_ir.Bounds
module Dense = Distal_tensor.Dense
module Rng = Distal_support.Rng

let r1 = Rect.make ~lo:[| 0 |] ~hi:[| 4 |]
let r2 = Rect.make ~lo:[| 0; 0 |] ~hi:[| 4; 4 |]
let lvl = List.hd (Distnot.parse_exn "[x,y] -> [x,y]")
let prov = Provenance.create [ ("i", 8); ("j", 8) ]
let no_env _ = None
let d2 = Dense.create [| 2; 3 |]

(* (function, the calls it must reject) *)
let cases =
  [
    ( "Rect.make",
      [ (fun () -> ignore (Rect.make ~lo:[| 0 |] ~hi:[| 1; 1 |]));
        (fun () -> ignore (Rect.make ~lo:[| 3 |] ~hi:[| 2 |])) ] );
    ("Rect.subset", [ (fun () -> ignore (Rect.subset r1 r2)) ]);
    ("Rect.inter", [ (fun () -> ignore (Rect.inter r1 r2)) ]);
    ("Rect.hull", [ (fun () -> ignore (Rect.hull r2 r1)) ]);
    ( "Bounds.access_rect",
      [ (fun () ->
          ignore
            (Bounds.access_rect prov ~env:no_env ~shape:[| 8 |]
               { Distal_ir.Expr.tensor = "A"; indices = [ "i"; "j" ] })) ] );
    ( "Ints.ceil_div",
      [ (fun () -> ignore (Ints.ceil_div 3 0)); (fun () -> ignore (Ints.ceil_div 3 (-2))) ] );
    ( "Ints.linearize",
      [ (fun () -> ignore (Ints.linearize ~dims:[| 2; 2 |] [| 1 |]));
        (fun () -> ignore (Ints.linearize ~dims:[| 2; 2 |] [| 1; 2 |])) ] );
    ( "Ints.delinearize",
      [ (fun () -> ignore (Ints.delinearize ~dims:[| 2; 2 |] 4));
        (fun () -> ignore (Ints.delinearize ~dims:[| 2; 2 |] (-1))) ] );
    ( "Distnot.color_of_point",
      [ (fun () ->
          ignore (Distnot.color_of_point lvl ~shape:[| 4; 4 |] ~mdims:[| 2; 2 |] [| 1 |])) ] );
    ( "Distnot.procs_of_color",
      [ (fun () -> ignore (Distnot.procs_of_color lvl ~mdims:[| 2; 2 |] [| 0; 0; 0 |])) ] );
    ( "Machine.grid",
      [ (fun () -> ignore (Machine.grid [||]));
        (fun () -> ignore (Machine.grid [| 2; 0 |]));
        (fun () -> ignore (Machine.grid ~node_factors:[| 1 |] [| 2; 2 |]));
        (fun () -> ignore (Machine.grid ~node_factors:[| 3 |] [| 4 |])) ] );
    ( "Rng.int",
      [ (fun () -> ignore (Rng.int (Rng.create 1) 0));
        (fun () -> ignore (Rng.int (Rng.create 1) (-3))) ] );
    ( "Dense.get",
      [ (fun () -> ignore (Dense.get d2 [| 2; 0 |]));
        (fun () -> ignore (Dense.get d2 [| 0; 3 |]));
        (fun () -> ignore (Dense.get d2 [| 0; -1 |]));
        (fun () -> ignore (Dense.get d2 [| 0 |])) ] );
    ("Dense.set", [ (fun () -> Dense.set d2 [| 1; 3 |] 1.0) ]);
    ("Dense.add_at", [ (fun () -> Dense.add_at d2 [| 0; 0; 0 |] 1.0) ]);
    ( "Dense.max_abs_diff",
      [ (fun () -> ignore (Dense.max_abs_diff d2 (Dense.create [| 6 |]))) ] );
  ]

let check (name, calls) () =
  List.iteri
    (fun i f ->
      match f () with
      | () -> Alcotest.failf "%s: call %d was accepted" name i
      | exception Invalid_argument _ -> ())
    calls

let suites =
  [ ("preconditions", List.map (fun (name, calls) -> Alcotest.test_case name `Quick (check (name, calls))) cases) ]
