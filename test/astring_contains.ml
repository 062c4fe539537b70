(* Substring test helper for golden-ish assertions. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Index of the first occurrence of [needle] in [haystack]. *)
let find haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None else if String.sub haystack i nn = needle then Some i else go (i + 1)
  in
  go 0
