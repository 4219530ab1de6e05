(* Order statistics over float samples. Quantiles interpolate linearly
   between closest ranks, so the median of an even count is the mean of
   the two middle values. *)

let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float (Float.round (floor pos)) in
      let hi = min (lo + 1) (Array.length a - 1) in
      let w = pos -. float_of_int lo in
      (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

let ratio num den = if den = 0. then 0. else num /. den
