(* RFC 4648 base64 (standard alphabet, '=' padding). The serving
   protocol carries tensor payloads as base64 of their raw IEEE-754 bytes:
   an exact image of the bits at 4 characters per 3 bytes. Both loops
   work a 3-byte group at a time with no allocation and no per-character
   calls, so they run near memory speed. *)

let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

(* Character code -> 6-bit value, or -1 outside the alphabet ('=' too). *)
let inverse =
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) alphabet;
  t

let encoded_length n = 4 * ((n + 2) / 3)

let encode b =
  let n = Bytes.length b in
  let out = Bytes.create (encoded_length n) in
  let full = n / 3 in
  for g = 0 to full - 1 do
    let i = 3 * g and o = 4 * g in
    let w =
      (Char.code (Bytes.unsafe_get b i) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)
      lor Char.code (Bytes.unsafe_get b (i + 2))
    in
    Bytes.unsafe_set out o (String.unsafe_get alphabet (w lsr 18));
    Bytes.unsafe_set out (o + 1) (String.unsafe_get alphabet ((w lsr 12) land 63));
    Bytes.unsafe_set out (o + 2) (String.unsafe_get alphabet ((w lsr 6) land 63));
    Bytes.unsafe_set out (o + 3) (String.unsafe_get alphabet (w land 63))
  done;
  let i = 3 * full and o = 4 * full in
  let rest = n - i in
  if rest > 0 then begin
    let w =
      (Char.code (Bytes.get b i) lsl 16)
      lor if rest = 2 then Char.code (Bytes.get b (i + 1)) lsl 8 else 0
    in
    Bytes.set out o alphabet.[w lsr 18];
    Bytes.set out (o + 1) alphabet.[(w lsr 12) land 63];
    Bytes.set out (o + 2) (if rest = 2 then alphabet.[(w lsr 6) land 63] else '=');
    Bytes.set out (o + 3) '='
  end;
  Bytes.unsafe_to_string out

let invalid i = Error (Printf.sprintf "invalid base64 character at %d" i)

(* Position of the first character outside the alphabet in s[i, i+len). *)
let first_invalid s i len =
  let rec go k =
    if k >= i + len then i + len else if inverse.(Char.code s.[k]) < 0 then k else go (k + 1)
  in
  go i

let decode s =
  let n = String.length s in
  if n mod 4 <> 0 then Error (Printf.sprintf "base64 length %d is not a multiple of 4" n)
  else begin
    let pad =
      if n >= 1 && s.[n - 1] = '=' then if n >= 2 && s.[n - 2] = '=' then 2 else 1 else 0
    in
    let out = Bytes.create ((3 * (n / 4)) - pad) in
    let full = if pad > 0 then (n / 4) - 1 else n / 4 in
    (* One group's four 6-bit values are or-ed together: any -1 makes the
       whole word negative, so validity costs one test per group. *)
    let rec groups g =
      if g >= full then Ok ()
      else begin
        let i = 4 * g in
        let sextet k = Array.unsafe_get inverse (Char.code (String.unsafe_get s (i + k))) in
        let a = sextet 0 and b = sextet 1 and c = sextet 2 and d = sextet 3 in
        if a lor b lor c lor d < 0 then invalid (first_invalid s i 4)
        else begin
          let w = (a lsl 18) lor (b lsl 12) lor (c lsl 6) lor d and o = 3 * g in
          Bytes.unsafe_set out o (Char.unsafe_chr (w lsr 16));
          Bytes.unsafe_set out (o + 1) (Char.unsafe_chr ((w lsr 8) land 0xFF));
          Bytes.unsafe_set out (o + 2) (Char.unsafe_chr (w land 0xFF));
          groups (g + 1)
        end
      end
    in
    match groups 0 with
    | Error _ as e -> e
    | Ok () when pad = 0 -> Ok out
    | Ok () ->
        (* The last group carries 1 or 2 bytes. The bits it drops must be
           zero, so every byte string has exactly one accepted encoding. *)
        let i = 4 * full and o = 3 * full in
        let v k = inverse.(Char.code s.[i + k]) in
        let bad = first_invalid s i (4 - pad) in
        if bad < i + 4 - pad then invalid bad
        else if pad = 2 then
          if v 1 land 0xF <> 0 then invalid (i + 1)
          else begin
            Bytes.set out o (Char.chr ((v 0 lsl 2) lor (v 1 lsr 4)));
            Ok out
          end
        else if v 2 land 0x3 <> 0 then invalid (i + 2)
        else begin
          Bytes.set out o (Char.chr ((v 0 lsl 2) lor (v 1 lsr 4)));
          Bytes.set out (o + 1) (Char.chr (((v 1 land 0xF) lsl 4) lor (v 2 lsr 2)));
          Ok out
        end
  end
