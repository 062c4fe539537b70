type 'a t = 'a option array Domain.DLS.key

let create n = Domain.DLS.new_key (fun () -> Array.make n None)

let take t i =
  let a = Domain.DLS.get t in
  if i >= Array.length a then None
  else begin
    let x = a.(i) in
    a.(i) <- None;
    x
  end

let give t i x =
  let a = Domain.DLS.get t in
  if i < Array.length a then a.(i) <- Some x
