(* Centralized parsing of DISTAL_* environment variables.

   Every knob the runtime reads from the environment goes through here so
   that malformed values fail loudly and uniformly instead of being
   silently ignored at each call site. An unset or empty variable always
   means "use the default"; a set-but-malformed one is a configuration
   error and raises. *)

let lookup name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s ->
      let s = String.trim s in
      if s = "" then None else Some s

let malformed name s expect =
  invalid_arg (Printf.sprintf "%s must be %s, got %S" name expect s)

let int_var name =
  match lookup name with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> Some n
      | None -> malformed name s "an integer")

let positive_int_var name =
  match lookup name with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> malformed name s "a positive integer")

let float_var name =
  match lookup name with
  | None -> None
  | Some s -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Some f
      | Some _ | None -> malformed name s "a finite number")

let non_negative_float_var name =
  match lookup name with
  | None -> None
  | Some s -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f >= 0.0 -> Some f
      | Some _ | None -> malformed name s "a non-negative finite number")

(* Leaf-kernel knobs (lib/machine/calibrate). *)

let kernel_rate () =
  match non_negative_float_var "DISTAL_KERNEL_RATE" with
  | Some f when f > 0.0 -> Some f
  | Some _ -> malformed "DISTAL_KERNEL_RATE" "0" "a positive flop/s rate"
  | None -> None

(* Packing knob (lib/machine/calibrate). *)

let pack_overhead () =
  match non_negative_float_var "DISTAL_PACK_OVERHEAD" with
  | Some f when f > 0.0 -> Some f
  | Some _ -> malformed "DISTAL_PACK_OVERHEAD" "0" "a positive number of seconds"
  | None -> None
