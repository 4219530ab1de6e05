(* Workload [frontier]: the [qelect frontier] path on ~10^5-node Cayley
   instances. One op generates the instance (Presentation, straight into
   CSR), places an agent on every node, and calls Classes.compute then
   Oracle.predict, on a cleared artifact cache. The repeat query asks
   Oracle.predict again on the same values, three times after each op:
   the warm-cache hit path.
   The heap is compacted (untimed) before every op and every repeat, so
   each starts from a clean heap as a fresh [qelect frontier] process
   would; otherwise the 300 MB of garbage one op leaves behind decides
   how long the next one spends in the GC. *)

module P = Qe_group.Presentation
module Classes = Qe_symmetry.Classes
module Oracle = Qe_elect.Oracle
open Common

let specs = [ "circulant:100000:1+3+9"; "ccc:13"; "torus:300x400" ]

(* The same families a tenth of the size: the set-up's warm-up. *)
let warmup_specs = [ "circulant:10000:1+3+9"; "ccc:9"; "torus:100x100" ]

(* Spec spellings as in [qelect frontier --spec]. *)
let generate spec =
  match String.split_on_char ':' spec with
  | [ "circulant"; n; jumps ] ->
      P.circulant (int_of_string n)
        (List.map int_of_string (String.split_on_char '+' jumps))
  | [ "ccc"; d ] -> P.cube_connected_cycles (int_of_string d)
  | [ "torus"; dims ] -> (
      match String.split_on_char 'x' dims with
      | [ a; b ] ->
          let a = int_of_string a and b = int_of_string b in
          P.cayley (P.product (P.cyclic a) (P.cyclic b)) [ b; 1 ]
      | _ -> invalid_arg spec)
  | _ -> invalid_arg ("frontier spec: " ^ spec)

let uniform g = Bicolored.make g ~black:(List.init (Graph.n g) Fun.id)

(* The answer the paper gives for an agent on every node of a Cayley
   graph: one class of size n, so gcd n, and a placement-preserving
   translation, so election is impossible. *)
type answer = {
  n : int;
  prediction : Oracle.prediction;
  num_classes : int;
  gcd : int;
}

let correct a =
  a.prediction = Oracle.Unsolvable && a.num_classes = 1 && a.gcd = a.n

(* Seed-rotated order of the specs: the seed decides which instance the
   process meets first. *)
let order seed =
  let k = ((seed mod 3) + 3) mod 3 in
  List.filteri (fun i _ -> i >= k) specs @ List.filteri (fun i _ -> i < k) specs

let op tr ~op spec =
  Cache.clear ();
  Spans.span tr ~op "op.frontier" (fun () ->
      let sp name f = Spans.span tr ~op name f in
      let inst, gen_ns =
        sp "presentation.generate" (fun () -> timed (fun () -> generate spec))
      in
      let b = sp "bicolored.make" (fun () -> uniform inst.P.graph) in
      let cls = sp "classes.compute" (fun () -> Classes.compute b) in
      let prediction = sp "oracle.predict" (fun () -> Oracle.predict b) in
      (b, cls, prediction, gen_ns))

let repeats = 3

type sample = {
  spec : string;
  n : int;
  op_ns : int;
  repeat_ns : int list;
  gen_ns : int;
  fast : bool;
  ok : bool;
}

let run cfg =
  let quiet = Spans.create ~on:false in
  let (), setup =
    repeated_setup ~reps:5 (fun () ->
        List.iter (fun s -> ignore (op quiet ~op:(-1) s)) warmup_specs)
  in
  let order = Array.of_list (order cfg.seed) in
  let tr = Spans.create ~on:cfg.trace in
  let kernel = ref [] in
  Cache.reset_stats ();
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let failed = ref 0 in
  let nrounds = rounds cfg ~round_s:10. in
  let rec loop k acc =
    (* whole rounds only, so every run weighs the three specs alike *)
    if
      k > 0
      && k mod Array.length order = 0
      && (k / Array.length order = nrounds || past_cap cfg ~since:t0)
    then (k, List.rev acc)
    else
      let spec = order.(k mod Array.length order) in
      match
        Gc.compact ();
        let (b, cls, prediction, gen_ns), op_ns =
          timed (fun () -> with_counters tr kernel (fun () -> op tr ~op:k spec))
        in
        let repeat_ns =
          List.init repeats (fun _ ->
              Gc.compact ();
              snd
                (timed (fun () ->
                     Spans.span tr ~op:k "oracle.predict.repeat" (fun () ->
                         Oracle.predict b))))
        in
        let n = Graph.n (Bicolored.graph b) in
        let ok =
          correct
            {
              n;
              prediction;
              num_classes = Classes.num_classes cls;
              gcd = Oracle.gcd_classes b;
            }
        in
        { spec; n; op_ns; repeat_ns; gen_ns; fast = Classes.used_fast_path cls; ok }
      with
      | s ->
          if not s.ok then incr failed;
          loop (k + 1) (s :: acc)
      | exception e ->
          prerr_endline ("frontier " ^ spec ^ ": " ^ Printexc.to_string e);
          incr failed;
          loop (k + 1) acc
  in
  let attempted, samples = loop 0 [] in
  let gc1 = Gc.quick_stat () in
  let heap = peak_heap_mb () in
  let ops = List.length samples in
  let op_ms = List.map (fun s -> ms s.op_ns) samples in
  let repeat_ms = List.concat_map (fun s -> List.map ms s.repeat_ns) samples in
  let e2e =
    [
      ("setup_s", setup);
      ( "ops_per_s",
        value ~samples:ops (float_of_int ops /. (Stats.sum op_ms /. 1e3)) );
      ("op_p50_ms", value ~samples:ops (Stats.median op_ms));
      ("op_p90_ms", value ~samples:ops (Stats.quantile 0.9 op_ms));
      ("repeat_p50_ms", value ~samples:(List.length repeat_ms) (Stats.median repeat_ms));
      ("peak_heap_mb", value heap);
    ]
  in
  let per_spec =
    List.map
      (fun spec ->
        let mine = List.filter (fun s -> s.spec = spec) samples in
        Printf.sprintf "%-24s n=%-7d ops=%d op_p50=%.1f ms repeat_p50=%.1f ms"
          spec
          (match mine with s :: _ -> s.n | [] -> 0)
          (List.length mine)
          (Stats.median (List.map (fun s -> ms s.op_ns) mine))
          (Stats.median (List.concat_map (fun s -> List.map ms s.repeat_ns) mine)))
      specs
  in
  let layers =
    if not cfg.trace then []
    else begin
      let cache = cache_layers () in
      let computes =
        1. +. (float_of_int (misses_of "classes") /. float_of_int (max 1 ops))
      in
      let probes =
        List.mapi
          (fun i spec ->
            probe tr ~op:(attempted + i) ~search:false
              (fun () -> uniform (generate spec).P.graph))
          specs
      in
      let unattributed = Spans.unattributed_frac tr in
      let overhead =
        overhead_layer ~n:(Array.length order) (fun tr i ->
            Gc.compact ();
            with_counters tr (ref []) (fun () -> ignore (op tr ~op:i order.(i))))
      in
      let gen = List.map (fun s -> ms s.gen_ns) samples in
      [
        ("presentation.gen_ms", value ~samples:ops (Stats.median gen));
        ( "presentation.gen_ns_per_node",
          value ~samples:ops
            (Stats.median
               (List.map (fun s -> float_of_int s.gen_ns /. float_of_int s.n) samples))
        );
        ("classes.compute_ms", span_median tr "classes.compute");
        ( "classes.fast_path_frac",
          fraction (List.length (List.filter (fun s -> s.fast) samples)) ops );
        ("classes.computes_per_op", value ~samples:ops computes);
        ("oracle.predict_ms", span_median tr "oracle.predict");
        overhead;
        ("trace.unattributed_frac", value unattributed);
      ]
      @ cache @ probe_layers tr probes
      @ kernel_layers !kernel ~ops
      @ gc_layers ~before:gc0 ~after:gc1 ~ops
    end
  in
  { attempted; failed = !failed; e2e; layers; notes = per_spec; tracer = tr }
