type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Runs of characters that need no escaping are copied as one substring,
   so a long plain string costs a scan and a blit. *)
let add_escaped buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !run (n - !run)

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write ~indent ~level buf t =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          write ~indent ~level:(level + 1) buf x)
        xs;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf (if indent then "\": " else "\":");
          write ~indent ~level:(level + 1) buf v)
        kvs;
      nl level;
      Buffer.add_char buf '}'

let render ~indent t =
  let buf = Buffer.create 1024 in
  write ~indent ~level:0 buf t;
  Buffer.contents buf

let to_string t = render ~indent:false t
let to_string_pretty t = render ~indent:true t

(* {2 Parser} *)

exception Fail of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "at %d: expected %c, got %c" !pos c c'
    | None -> fail "at %d: expected %c, got end of input" !pos c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "at %d: bad literal" !pos
  in
  (* Plain runs between escapes are copied as substrings; a string with
     no escapes at all is a single [String.sub]. *)
  let rec plain_end i =
    if i >= n then fail "unterminated string"
    else match String.unsafe_get s i with '"' | '\\' -> i | _ -> plain_end (i + 1)
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain_end start in
    pos := stop + 1;
    if s.[stop] = '"' then String.sub s start (stop - start)
    else begin
      let buf = Buffer.create (stop - start + 16) in
      Buffer.add_substring buf s start (stop - start);
      let rec escape_at () =
        (* [!pos] is just past a backslash. *)
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "bad \\u escape";
            let hex c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
              | _ -> fail "bad \\u escape at %d" !pos
            in
            let code = ref 0 in
            for i = !pos to !pos + 3 do
              code := (!code lsl 4) lor hex s.[i]
            done;
            let code = !code in
            pos := !pos + 4;
            (* Only BMP code points below 0x80 render as a char; others
               become UTF-8. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
        | _ -> fail "bad escape at %d" !pos);
        let start = !pos in
        let stop = plain_end start in
        Buffer.add_substring buf s start (stop - start);
        pos := stop + 1;
        if s.[stop] = '\\' then escape_at ()
      in
      escape_at ();
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let str = String.sub s start (!pos - start) in
    match int_of_string_opt str with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt str with
        | Some f -> Float f
        | None -> fail "at %d: bad number %S" start str)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "at %d: expected , or ] in array" !pos
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec pairs acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                pairs ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "at %d: expected , or } in object" !pos
          in
          Obj (pairs [])
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at %d" !pos;
    v
  with
  | v -> Ok v
  | exception Fail m -> Error m

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
