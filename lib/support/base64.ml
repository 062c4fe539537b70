(* RFC 4648 base64 (standard alphabet, '=' padding). The serving
   protocol carries tensor payloads as base64 of their raw IEEE-754 bytes:
   an exact image of the bits at 4 characters per 3 bytes. Both loops
   work a 3-byte group at a time with no allocation and no per-character
   calls, so they run near memory speed. The float64 codec below moves
   such a payload between a bigarray and a wire buffer in one pass. *)

module A1 = Bigarray.Array1

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

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

let bad_length n = Error (Printf.sprintf "base64 length %d is not a multiple of 4" n)

(* Position of the first character outside the alphabet in s[i, i+len). *)
let first_invalid s i len =
  let rec go k =
    if k >= i + len then i + len else if inverse.(Char.code s.[k]) < 0 then k else go (k + 1)
  in
  go i

(* Decodes s[off, off+len); error positions count from [origin]. *)
let decode_span s ~origin off len =
  if len mod 4 <> 0 then bad_length len
  else begin
    let last = off + len - 1 in
    let pad =
      if len >= 1 && s.[last] = '=' then if len >= 2 && s.[last - 1] = '=' then 2 else 1 else 0
    in
    let out = Bytes.create ((3 * (len / 4)) - pad) in
    let full = if pad > 0 then (len / 4) - 1 else len / 4 in
    (* One group's four 6-bit values are or-ed together: any -1 makes the
       whole word negative, so validity costs one test per group. *)
    let rec groups g =
      if g >= full then Ok ()
      else begin
        let i = off + (4 * g) in
        let sextet k = Array.unsafe_get inverse (Char.code (String.unsafe_get s (i + k))) in
        let a = sextet 0 and b = sextet 1 and c = sextet 2 and d = sextet 3 in
        if a lor b lor c lor d < 0 then invalid (first_invalid s i 4 - origin)
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
        let i = off + (4 * full) and o = 3 * full in
        let v k = inverse.(Char.code s.[i + k]) in
        let bad = first_invalid s i (4 - pad) in
        if bad < i + 4 - pad then invalid (bad - origin)
        else if pad = 2 then
          if v 1 land 0xF <> 0 then invalid (i + 1 - origin)
          else begin
            Bytes.set out o (Char.chr ((v 0 lsl 2) lor (v 1 lsr 4)));
            Ok out
          end
        else if v 2 land 0x3 <> 0 then invalid (i + 2 - origin)
        else begin
          Bytes.set out o (Char.chr ((v 0 lsl 2) lor (v 1 lsr 4)));
          Bytes.set out (o + 1) (Char.chr (((v 1 land 0xF) lsl 4) lor (v 2 lsr 2)));
          Ok out
        end
  end

let decode s = decode_span s ~origin:0 0 (String.length s)

(* {2 Float64 payloads}

   A float's 8 little-endian bytes are held as two plain ints: its low 7
   bytes and its top byte. Three floats are 24 bytes, 8 whole groups and
   32 characters, so the loops below move three floats per iteration with
   no [Int64] boxing, no scratch and no closure; only the last one or two
   floats of a buffer take the general byte path above. *)

let f64_length n = encoded_length (8 * n)

let[@inline] byte x k = (x lsr (8 * k)) land 0xFF

(* Bytes [k], [k+1], [k+2] of [x] as one group (first byte highest). *)
let[@inline] group3 x k = (byte x k lsl 16) lor (byte x (k + 1) lsl 8) lor byte x (k + 2)

external get16 : string -> int -> int = "%caml_string_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* The two characters of every 12-bit value, side by side: a 16-bit
   load from it and a 16-bit store put both in place, in either byte
   order. *)
let pairs =
  String.init 8192 (fun i -> alphabet.[if i land 1 = 0 then i lsr 7 else (i lsr 1) land 63])

(* The group [w] as four characters at [o]. *)
let[@inline] put out o w =
  set16 out o (get16 pairs (2 * (w lsr 12)));
  set16 out (o + 2) (get16 pairs (2 * (w land 0xFFF)))

let encode_f64 (buf : buf) out off =
  let n = A1.dim buf in
  if off < 0 || off > Bytes.length out - f64_length n then
    invalid_arg "Base64.encode_f64: output too short";
  let triples = n / 3 in
  for t = 0 to triples - 1 do
    let i = 3 * t and o = off + (32 * t) in
    let a = Int64.bits_of_float (A1.unsafe_get buf i)
    and b = Int64.bits_of_float (A1.unsafe_get buf (i + 1))
    and c = Int64.bits_of_float (A1.unsafe_get buf (i + 2)) in
    let la = Int64.to_int a and ha = Int64.to_int (Int64.shift_right_logical a 56) in
    let lb = Int64.to_int b and hb = Int64.to_int (Int64.shift_right_logical b 56) in
    let lc = Int64.to_int c and hc = Int64.to_int (Int64.shift_right_logical c 56) in
    put out o (group3 la 0);
    put out (o + 4) (group3 la 3);
    put out (o + 8) ((byte la 6 lsl 16) lor (ha lsl 8) lor byte lb 0);
    put out (o + 12) (group3 lb 1);
    put out (o + 16) (group3 lb 4);
    put out (o + 20) ((hb lsl 16) lor (byte lc 0 lsl 8) lor byte lc 1);
    put out (o + 24) (group3 lc 2);
    put out (o + 28) ((byte lc 5 lsl 16) lor (byte lc 6 lsl 8) lor hc)
  done;
  let rest = n - (3 * triples) in
  if rest > 0 then begin
    let b = Bytes.create (8 * rest) in
    for j = 0 to rest - 1 do
      Bytes.set_int64_le b (8 * j) (Int64.bits_of_float buf.{(3 * triples) + j})
    done;
    let s = encode b in
    Bytes.blit_string s 0 out (off + (32 * triples)) (String.length s)
  end

(* The group of the four characters at [i] (first byte highest);
   negative when any of them is outside the alphabet. *)
let[@inline] word s i =
  (Array.unsafe_get inverse (Char.code (String.unsafe_get s i)) lsl 18)
  lor (Array.unsafe_get inverse (Char.code (String.unsafe_get s (i + 1))) lsl 12)
  lor (Array.unsafe_get inverse (Char.code (String.unsafe_get s (i + 2))) lsl 6)
  lor Array.unsafe_get inverse (Char.code (String.unsafe_get s (i + 3)))

(* A group's three bytes in stream order, first byte lowest. *)
let[@inline] swap w = ((w land 0xFF) lsl 16) lor (w land 0xFF00) lor (w lsr 16)

let[@inline] float_of low top =
  Int64.float_of_bits (Int64.logor (Int64.of_int low) (Int64.shift_left (Int64.of_int top) 56))

let cannot_carry len n =
  Error (Printf.sprintf "%d base64 characters cannot carry %d float64 values" len n)

let decode_f64 s off len (buf : buf) =
  let n = A1.dim buf in
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Base64.decode_f64: span outside the string";
  if len mod 4 <> 0 then bad_length len
  else if n > len || len <> f64_length n then cannot_carry len n
  else begin
    let triples = n / 3 in
    let rec go t =
      if t >= triples then Ok ()
      else begin
        let i = off + (32 * t) in
        let g0 = word s i and g1 = word s (i + 4) and g2 = word s (i + 8) in
        let g3 = word s (i + 12) and g4 = word s (i + 16) and g5 = word s (i + 20) in
        let g6 = word s (i + 24) and g7 = word s (i + 28) in
        if g0 lor g1 lor g2 lor g3 lor g4 lor g5 lor g6 lor g7 < 0 then
          invalid (first_invalid s i 32 - off)
        else begin
          let k = 3 * t in
          A1.unsafe_set buf k
            (float_of
               (swap g0 lor (swap g1 lsl 24) lor ((g2 lsr 16) lsl 48))
               ((g2 lsr 8) land 0xFF));
          A1.unsafe_set buf (k + 1)
            (float_of ((g2 land 0xFF) lor (swap g3 lsl 8) lor (swap g4 lsl 32)) (g5 lsr 16));
          A1.unsafe_set buf (k + 2)
            (float_of
               (((g5 lsr 8) land 0xFF)
               lor ((g5 land 0xFF) lsl 8)
               lor (swap g6 lsl 16)
               lor ((g7 lsr 16) lsl 40)
               lor (((g7 lsr 8) land 0xFF) lsl 48))
               (g7 land 0xFF));
          go (t + 1)
        end
      end
    in
    match go 0 with
    | Error _ as e -> e
    | Ok () when 3 * triples = n -> Ok ()
    | Ok () -> (
        let p = off + (32 * triples) in
        match decode_span s ~origin:off p (off + len - p) with
        | Error _ as e -> e
        | Ok b when Bytes.length b <> 8 * (n - (3 * triples)) -> cannot_carry len n
        | Ok b ->
            for j = 0 to n - (3 * triples) - 1 do
              buf.{(3 * triples) + j} <- Int64.float_of_bits (Bytes.get_int64_le b (8 * j))
            done;
            Ok ())
  end
