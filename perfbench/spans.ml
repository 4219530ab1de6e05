(* The benchmark's own span recorder. Spans are taken from outside the
   program, around the calls an op makes into each layer, and kept in
   memory until the run ends; nothing here reaches into lib/.

   A span has a name (its layer is the part before the first '.'), a
   start and end on the monotonic clock, a parent (-1 for a root), the
   id of the op it belongs to and a lane (0 for the main domain, d + 1
   for the d-th worker domain). With tracing off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;
  op : int;
  lane : int;
}

type t = {
  on : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
}

let create ~on = { on; spans = []; next_id = 0; stack = [] }
let enabled t = t.on
let now = Qe_obs.Clock.now_ns

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.stack with p :: _ -> p | [] -> -1

(* A span built from timings taken elsewhere (e.g. on a worker domain). *)
let record t ~name ~start_ns ~end_ns ~parent ~op ~lane =
  let id = fresh_id t in
  t.spans <- { id; name; start_ns; end_ns; parent; op; lane } :: t.spans;
  id

let span t ~op name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t in
    let parent = current t in
    t.stack <- id :: t.stack;
    let start_ns = now () in
    let finish () =
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; name; start_ns; end_ns = now (); parent; op; lane = 0 }
        :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* The span closed most recently. *)
let last t = match t.spans with s :: _ -> Some s | [] -> None

let dur s = s.end_ns - s.start_ns
let all t = List.rev t.spans
let named t name = List.filter (fun s -> s.name = name) (all t)

let durations_ms t name =
  List.map (fun s -> float_of_int (dur s) /. 1e6) (named t name)

let children_index t =
  let h = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add h s.parent s) t.spans;
  fun id -> Hashtbl.find_all h id

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, max lb b))
        | Some (la, lb) -> (total + (lb - la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None) iv
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

let child_cover children s =
  covered ~lo:s.start_ns ~hi:s.end_ns
    (List.map (fun c -> (c.start_ns, c.end_ns)) (children s.id))

(* Self time of each span name: duration minus the part its children
   cover. Rows are (name, count, total_ns, self_ns), by self time. *)
let self_table t =
  let children = children_index t in
  let h = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s - child_cover children s in
      let n, tot, sf =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt h s.name)
      in
      Hashtbl.replace h s.name (n + 1, tot + dur s, sf + self))
    t.spans;
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) h []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* Share of the op spans (names starting "op.") that no child covers. *)
let unattributed_frac t =
  let children = children_index t in
  let total, cov =
    List.fold_left
      (fun (total, cov) s ->
        if String.starts_with ~prefix:"op." s.name then
          (total + dur s, cov + child_cover children s)
        else (total, cov))
      (0, 0) t.spans
  in
  if total = 0 then 0. else 1. -. (float_of_int cov /. float_of_int total)

let pp_table oc t =
  let rows = self_table t in
  let wall = List.fold_left (fun a (_, _, _, sf) -> a + sf) 0 rows in
  Printf.fprintf oc "%-46s %8s %12s %12s %7s\n" "span" "count" "total_ms"
    "self_ms" "self%";
  List.iter
    (fun (name, n, tot, sf) ->
      Printf.fprintf oc "%-46s %8d %12.3f %12.3f %6.2f%%\n" name n
        (float_of_int tot /. 1e6) (float_of_int sf /. 1e6)
        (100. *. float_of_int sf /. float_of_int (max 1 wall)))
    rows

(* Chrome trace-event JSON through the library's exporter, so Perfetto
   opens it. A span on another lane than its parent starts a tree of its
   own in that lane; "parent" and "op" ride along as attributes. *)
let write_chrome t path =
  let children = children_index t in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let attrs s =
    let base =
      [
        ("span", Qe_obs.Jsonl.Int s.id);
        ("parent", Qe_obs.Jsonl.Int s.parent);
        ("op", Qe_obs.Jsonl.Int s.op);
      ]
    in
    if s.lane > 0 then ("domain", Qe_obs.Jsonl.Int (s.lane - 1)) :: base
    else base
  in
  let rec tree s =
    {
      Qe_obs.Span.name = s.name;
      start_ns = s.start_ns;
      dur_ns = dur s;
      attrs = attrs s;
      children =
        children s.id
        |> List.filter (fun c -> c.lane = s.lane)
        |> List.sort (fun a b -> compare a.start_ns b.start_ns)
        |> List.map tree;
    }
  in
  let is_root s =
    match Hashtbl.find_opt by_id s.parent with
    | None -> true
    | Some p -> p.lane <> s.lane
  in
  let roots =
    all t |> List.filter is_root
    |> List.sort (fun a b -> compare a.start_ns b.start_ns)
  in
  Qe_obs.Chrome.write_file path
    (List.map (fun s -> Qe_obs.Export.Span_tree (tree s)) roots)
