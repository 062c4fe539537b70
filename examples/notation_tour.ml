(* A tour of DISTAL's two mapping languages.

   Part 1 walks through tensor distribution notation (§3.2, Fig. 4-5):
   partitioning, fixing and broadcasting, the formal P and F functions of
   the paper's running example, and hierarchical distributions.

   Part 2 walks through computation mapping (§3.3, Fig. 6-8): the
   execution-space view of distribute/communicate and how rotate turns a
   broadcast pattern into a systolic one, on the paper's running example
   forall_i forall_j a(i) += b(j).

   Run with: dune exec examples/notation_tour.exe *)

module Api = Distal.Api
module Machine = Api.Machine
module D = Api.Distnot
module Rect = Api.Rect
module Stats = Api.Stats

let show_tiles label dist shape machine =
  Printf.printf "%-24s (tensor %s on %s)\n" label
    (Distal_support.Ints.to_string shape)
    (Machine.to_string machine);
  (* The pieces of the whole tensor are its tiles, each with its owners. *)
  let owners = List.map (fun p -> Distal_support.Ints.to_string (Machine.delinearize machine p)) in
  List.iter
    (fun (r, owners) ->
      Printf.printf "  tile %-14s -> processors %s\n" (Rect.to_string r)
        (String.concat ", " owners))
    (D.pieces (D.layout (D.parse_exn dist) ~shape ~machine ~owners) (Rect.full shape));
  print_newline ()

let part1 () =
  print_endline "== Part 1: tensor distribution notation (Fig. 5) ==\n";
  let m1 = Machine.grid [| 4 |] in
  let m2 = Machine.grid [| 2; 2 |] in
  let m3 = Machine.grid [| 2; 2; 2 |] in
  show_tiles "rows:    [x,y] -> [x]" "[x,y] -> [x]" [| 8; 8 |] m1;
  show_tiles "columns: [x,y] -> [y]" "[x,y] -> [y]" [| 8; 8 |] m1;
  show_tiles "tiles:   [x,y] -> [x,y]" "[x,y] -> [x,y]" [| 8; 8 |] m2;
  show_tiles "face:    [x,y] -> [x,y,0]" "[x,y] -> [x,y,0]" [| 8; 8 |] m3;
  show_tiles "bcast:   [x,y] -> [x,y,*]" "[x,y] -> [x,y,*]" [| 8; 8 |] m3;
  (* The paper's running example of P and F: T 2x2 onto M 2x2x2. *)
  print_endline "P and F for [x,y] -> [x,y,*] with a 2x2 tensor on a 2x2x2 machine:";
  let lvl = List.hd (D.parse_exn "[x,y] -> [x,y,*]") in
  Distal_support.Ints.iter_box [| 2; 2 |] (fun pt ->
      let color = D.color_of_point lvl ~shape:[| 2; 2 |] ~mdims:[| 2; 2; 2 |] pt in
      let procs = D.procs_of_color lvl ~mdims:[| 2; 2; 2 |] color in
      Printf.printf "  P%s = %s;  F%s = {%s}\n"
        (Distal_support.Ints.to_string pt)
        (Distal_support.Ints.to_string color)
        (Distal_support.Ints.to_string color)
        (String.concat ", " (List.map Distal_support.Ints.to_string procs)));
  print_newline ();
  (* Hierarchy: 2-D tiling over nodes, row split over each node's GPUs. *)
  let mh =
    Machine.hierarchical ~node_dims:[| 2; 2 |] ~proc_dims:[| 2 |] ~kind:Machine.Gpu
      ~mem_per_proc:16e9
  in
  show_tiles "hierarchical" "[x,y] -> [x,y]; [z,w] -> [z]" [| 8; 8 |] mh;
  (* §5.3: lowering a distribution statement to concrete index notation. *)
  print_endline "Lowering T[x,y] -> M[x] to concrete index notation (§5.3):";
  let cin =
    Result.get_ok
      (D.lower_to_cin
         (List.hd (D.parse_exn "[x,y] -> [x]"))
         ~tensor:"T" ~shape:[| 8; 8 |] ~machine:m1)
  in
  Printf.printf "  %s\n\n" (Distal_ir.Cin.to_string cin)

let part2 () =
  print_endline "== Part 2: execution spaces and rotate (Fig. 6-8) ==\n";
  let machine = Machine.grid [| 3 |] in
  let problem schedule =
    let p =
      Api.problem_exn ~machine ~stmt:"a(i) = b(j)"
        ~tensors:
          [
            Api.tensor "a" [| 3 |] ~dist:"[x] -> [x]";
            Api.tensor "b" [| 3 |] ~dist:"[x] -> [x]";
          ]
        ()
    in
    Api.compile_script_exn p ~schedule
  in
  let broadcast = problem "distribute(i); communicate(a, i); communicate(b, j)" in
  let systolic =
    problem "distribute(i); rotate(j, {i}, js); communicate(a, i); communicate(b, js)"
  in
  print_endline "Distributed over i, each processor needs every b(j) (Fig. 7b).";
  print_endline "Without rotate, all processors want the same b(j) at the same";
  print_endline "time - the owner broadcasts (Fig. 8a). With rotate(j, {i}, js),";
  print_endline "processor i starts at j = i and the pattern becomes systolic";
  print_endline "(Fig. 8b): same volume, no broadcasts.\n";
  List.iter
    (fun (name, plan) ->
      (match Api.validate plan with
      | Ok () -> ()
      | Error e -> failwith (name ^ ": " ^ e));
      let s = Api.estimate plan in
      Printf.printf "%-10s %d steps, %d messages, %.0f B moved, modeled %.3g us\n" name
        s.Stats.steps s.Stats.messages
        (s.Stats.bytes_inter +. s.Stats.bytes_intra)
        (s.Stats.time *. 1e6))
    [ ("broadcast", broadcast); ("systolic", systolic) ];
  print_newline ();
  print_endline "Generated program for the systolic version:";
  print_endline (Api.describe systolic);
  (* Fig. 12: the communication pattern of B in Cannon's algorithm on a
     3x3 grid, rendered from the runtime's trace. Each cell shows the tile
     of B the processor received at that step ('.' = already local). *)
  print_endline "== Fig. 12: Cannon's B tiles per step on a 3x3 grid ==\n";
  let machine3 = Machine.grid [| 3; 3 |] in
  let cannon =
    Result.get_ok (Distal_algorithms.Matmul.cannon ~n:9 ~machine:machine3)
  in
  let trace = ref [] in
  let _ =
    Api.run_exn ~trace cannon.Distal_algorithms.Matmul.plan
      ~data:(Api.random_inputs cannon.Distal_algorithms.Matmul.plan)
  in
  print_endline (Distal_runtime.Gantt.grid_view ~machine:machine3 ~tensor:"B" !trace)

let () =
  part1 ();
  part2 ()
