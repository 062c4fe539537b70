let prod a = Array.fold_left ( * ) 1 a

let ceil_div a b =
  if b <= 0 then invalid_arg "Ints.ceil_div: divisor must be positive";
  (a + b - 1) / b

let row_major_strides dims =
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  strides

let linearize ~dims coord =
  if Array.length dims <> Array.length coord then
    invalid_arg "Ints.linearize: coordinate rank differs from dims";
  let acc = ref 0 in
  Array.iteri
    (fun i c ->
      if c < 0 || c >= dims.(i) then invalid_arg "Ints.linearize: coordinate out of range";
      acc := (!acc * dims.(i)) + c)
    coord;
  !acc

let delinearize ~dims idx =
  let n = Array.length dims in
  let coord = Array.make n 0 in
  let rem = ref idx in
  for i = n - 1 downto 0 do
    coord.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  if !rem <> 0 || idx < 0 then invalid_arg "Ints.delinearize: index out of range";
  coord

let iter_box dims f =
  let n = prod dims in
  for idx = 0 to n - 1 do
    f (delinearize ~dims idx)
  done

let fold_box dims ~init ~f =
  let acc = ref init in
  iter_box dims (fun c -> acc := f !acc c);
  !acc

let equal a b = a = b

let mix h x =
  let h = (h lxor x) * 0x2127599bf4325c37 in
  h lxor (h lsr 29)

let to_string a =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

let take k a = Array.sub a 0 k
let drop k a = Array.sub a k (Array.length a - k)
