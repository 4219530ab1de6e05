type t = {
  graph : Graph.t;
  black : bool array;
  mutable key_digest : int option;
}

let make graph ~black =
  let n = Graph.n graph in
  if black = [] then invalid_arg "Bicolored.make: empty placement";
  let arr = Array.make n false in
  List.iter
    (fun u ->
      if u < 0 || u >= n then invalid_arg "Bicolored.make: node out of range";
      if arr.(u) then invalid_arg "Bicolored.make: duplicate home-base";
      arr.(u) <- true)
    black;
  { graph; black = arr; key_digest = None }

let graph t = t.graph
let is_black t u = t.black.(u)

let blacks t =
  let acc = ref [] in
  for u = Graph.n t.graph - 1 downto 0 do
    if t.black.(u) then acc := u :: !acc
  done;
  !acc

let num_blacks t = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.black
let node_color t u = if t.black.(u) then 1 else 0

let complement t =
  let whites =
    List.filter (fun u -> not t.black.(u)) (List.init (Graph.n t.graph) Fun.id)
  in
  make t.graph ~black:whites

let key_digest t = t.key_digest
let set_key_digest t d = t.key_digest <- Some d

let pp ppf t =
  Format.fprintf ppf "(%a, blacks=%s)" Graph.pp t.graph
    (String.concat "," (List.map string_of_int (blacks t)))
