(* Length-prefixed framing for the distald wire protocol.

   A frame is an 8-digit zero-padded decimal byte length, a newline, the
   payload and a trailing newline:

     00000042\n{"type":"submit","id":1,...}\n

   A payload starts with one JSON document on a single line. A result
   that carries an output follows it with a newline and the output's raw
   little-endian float64 bytes (lib/serve/protocol.ml), which need no
   escaping: the payload length is known before the payload is read.
   The fixed-width prefix keeps framing trivial to parse incrementally,
   and `socat`/`nc` transcripts of every head stay readable JSON lines.
   Reads distinguish a clean EOF on a frame boundary (None) from a
   connection dying mid-frame (Error), which is how the server detects
   clients killed mid-request. *)

let max_frame = 64 * 1024 * 1024
let header_len = 9 (* 8 digits + '\n' *)

let frame buf n write =
  if n > max_frame then
    invalid_arg (Printf.sprintf "Wire.frame: frame of %d bytes exceeds %d" n max_frame);
  let len = header_len + n + 1 in
  let frame = if Bytes.length buf >= len then buf else Bytes.create len in
  Bytes.blit_string (Printf.sprintf "%08d\n" n) 0 frame 0 header_len;
  write frame header_len;
  Bytes.set frame (header_len + n) '\n';
  (frame, len)

let encode payload =
  let n = String.length payload in
  let write b off = Bytes.blit_string payload 0 b off n in
  Bytes.unsafe_to_string (fst (frame Bytes.empty n write))

(* {2 Blocking fd transport} *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = try Unix.write_substring fd s off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd s (off + n) (len - n)
  end

let send fd payload =
  let frame = encode payload in
  write_all fd frame 0 (String.length frame)

let rec read_exact fd buf off len =
  if len = 0 then `Done
  else
    match Unix.read fd buf off len with
    | 0 -> `Eof off
    | n -> read_exact fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf off len
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof off

(* Exactly eight decimal digits and a newline: no sign, no radix prefix,
   no underscores, which int_of_string would all accept. Read in place at
   [off]. *)
let parse_header b off =
  let rec digits i n =
    if i = header_len - 1 then n
    else
      match Bytes.get b (off + i) with
      | '0' .. '9' as c -> digits (i + 1) ((n * 10) + Char.code c - Char.code '0')
      | _ -> -1
  in
  let n = if Bytes.get b (off + header_len - 1) <> '\n' then -1 else digits 0 0 in
  if n < 0 then
    Error (Printf.sprintf "bad frame header %S" (Bytes.sub_string b off (header_len - 1)))
  else if n <= max_frame then Ok n
  else Error (Printf.sprintf "frame length %d out of range" n)

let recv fd =
  let hdr = Bytes.create header_len in
  match read_exact fd hdr 0 header_len with
  | `Eof 0 -> Ok None (* clean close on a frame boundary *)
  | `Eof _ -> Error "connection closed inside a frame header"
  | `Done -> (
      match parse_header hdr 0 with
      | Error _ as e -> e
      | Ok n -> (
          (* The payload is read into its own buffer and handed over
             without a copy; the trailing newline is read separately. *)
          let payload = Bytes.create n in
          match read_exact fd payload 0 n with
          | `Eof _ -> Error "connection closed inside a frame payload"
          | `Done -> (
              match read_exact fd hdr 0 1 with
              | `Eof _ -> Error "connection closed inside a frame payload"
              | `Done ->
                  if Bytes.get hdr 0 <> '\n' then Error "frame missing trailing newline"
                  else Ok (Some (Bytes.unsafe_to_string payload)))))

(* {2 Incremental decoding (for select-driven loops)} *)

(* The unread bytes are [buf.[off, len)]. [next] reads each frame where
   it lies and only advances [off]; [feed] moves the unread bytes to the
   front once, then appends, doubling [buf] when they do not fit. *)
type decoder = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let decoder () = { buf = Bytes.create 256; off = 0; len = 0 }

let feed d s off n =
  let unread = d.len - d.off in
  if unread + n > Bytes.length d.buf then begin
    let buf = Bytes.create (Int.max (unread + n) (2 * Bytes.length d.buf)) in
    Bytes.blit d.buf d.off buf 0 unread;
    d.buf <- buf
  end
  else if d.off > 0 then Bytes.blit d.buf d.off d.buf 0 unread;
  Bytes.blit s off d.buf unread n;
  d.off <- 0;
  d.len <- unread + n

let pending d = d.len > d.off

let next d =
  let avail = d.len - d.off in
  if avail < header_len then Ok None
  else
    match parse_header d.buf d.off with
    | Error _ as e -> e
    | Ok n ->
        let total = header_len + n + 1 in
        if avail < total then Ok None
        else if Bytes.get d.buf (d.off + total - 1) <> '\n' then
          Error "frame missing trailing newline"
        else begin
          let payload = Bytes.sub_string d.buf (d.off + header_len) n in
          d.off <- d.off + total;
          Ok (Some payload)
        end
