(* Workload [census]: the [qelect analyze] path on distinct seeded
   medium instances. A round visits every catalogue graph four times,
   with fresh seeded placements of 1, 2, 3 and 4 agents; runs are whole
   rounds, so every seed weighs the families and agent counts alike. One op calls Classes.compute,
   Oracle.elect_prediction and Oracle.predict (plus
   Cayley_detect.recognize when n <= 24, as analyze does) on a cleared
   cache, then asks Oracle.predict once more as the repeat query. *)

module F = Qe_graph.Families
module Classes = Qe_symmetry.Classes
module Oracle = Qe_elect.Oracle
open Common

type entry = {
  label : string;
  n : int;
  build : int -> Graph.t;  (** the argument seeds random families only *)
}

let fixed label n g = { label; n; build = (fun _ -> g ()) }

let random n =
  {
    label = Printf.sprintf "random%d" n;
    n;
    build =
      (fun seed -> F.random_connected ~seed ~n ~extra_edges:(n / 2));
  }

let catalogue =
  [
    fixed "T4x4" 16 (fun () -> F.torus 4 4);
    fixed "T4x6" 24 (fun () -> F.torus 4 6);
    fixed "T5x5" 25 (fun () -> F.torus 5 5);
    fixed "T6x6" 36 (fun () -> F.torus 6 6);
    fixed "T6x8" 48 (fun () -> F.torus 6 8);
    fixed "T8x8" 64 (fun () -> F.torus 8 8);
    fixed "Q3" 8 (fun () -> F.hypercube 3);
    fixed "Q4" 16 (fun () -> F.hypercube 4);
    fixed "Q5" 32 (fun () -> F.hypercube 5);
    fixed "C16(1,4)" 16 (fun () -> F.circulant 16 [ 1; 4 ]);
    fixed "C24(1,5,7)" 24 (fun () -> F.circulant 24 [ 1; 5; 7 ]);
    fixed "C30(1,6)" 30 (fun () -> F.circulant 30 [ 1; 6 ]);
    fixed "C48(1,7,9)" 48 (fun () -> F.circulant 48 [ 1; 7; 9 ]);
    fixed "C64(1,5)" 64 (fun () -> F.circulant 64 [ 1; 5 ]);
    fixed "GP(8,3)" 16 (fun () -> F.generalized_petersen 8 3);
    fixed "GP(10,2)" 20 (fun () -> F.generalized_petersen 10 2);
    fixed "GP(10,3)" 20 (fun () -> F.generalized_petersen 10 3);
    fixed "GP(12,5)" 24 (fun () -> F.generalized_petersen 12 5);
    fixed "K(6,2)" 15 (fun () -> F.kneser 6 2);
    fixed "K(7,2)" 21 (fun () -> F.kneser 7 2);
    fixed "K(7,3)" 35 (fun () -> F.kneser 7 3);
    fixed "CCC3" 24 (fun () -> F.cube_connected_cycles 3);
    fixed "CCC4" 64 (fun () -> F.cube_connected_cycles 4);
    fixed "CCC5" 160 (fun () -> F.cube_connected_cycles 5);
    fixed "petersen" 10 F.petersen;
    random 16;
    random 32;
    random 48;
    random 64;
  ]

(* A census instance: which catalogue graph, the seed of a random
   family, the agents' homes and the seed of its renumbering. *)
type instance = {
  entry : entry;
  graph_seed : int;
  black : int list;
  renumber_seed : int;
}

let describe i =
  Printf.sprintf "%s/g%d/{%s}/r%d" i.entry.label i.graph_seed
    (String.concat "," (List.map string_of_int i.black))
    i.renumber_seed

let distinct_nodes rng ~n k =
  let rec go acc =
    if List.length acc = k then List.sort compare acc
    else
      let u = Random.State.int rng n in
      go (if List.mem u acc then acc else u :: acc)
  in
  go []

let round ~seed r =
  List.concat_map
    (fun k ->
      List.mapi
        (fun idx entry ->
          let rng = Random.State.make [| seed; r; k; idx |] in
          let graph_seed = Random.State.bits rng in
          let black = distinct_nodes rng ~n:entry.n (min entry.n k) in
          { entry; graph_seed; black; renumber_seed = Random.State.bits rng })
        catalogue)
    [ 1; 2; 3; 4 ]

(* Rounds are drawn lazily; the first [rounds] of a seed are always the
   same instances. *)
let instances ~seed ~rounds = List.concat (List.init rounds (round ~seed))
let bicolored i = Bicolored.make (i.entry.build i.graph_seed) ~black:i.black

(* A seeded renumbering of an instance: a random permutation of its
   nodes, edges and homes mapped through it. *)
let renumber i =
  let g = i.entry.build i.graph_seed in
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  let rng = Random.State.make [| i.renumber_seed |] in
  for k = n - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = perm.(k) in
    perm.(k) <- perm.(j);
    perm.(j) <- t
  done;
  let g' =
    Graph.of_edges ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))
  in
  Bicolored.make g' ~black:(List.map (fun u -> perm.(u)) i.black)

type answer = {
  n : int;
  sizes : int list;
  gcd : int;  (** Oracle.gcd_classes *)
  elects : bool;  (** Oracle.elect_prediction *)
  prediction : Oracle.prediction;
}

(* Class sizes partition the nodes, the oracle's gcd is the gcd of the
   class sizes, Theorem 3.1's verdict follows that gcd, and the combined
   prediction never contradicts it. *)
let correct a =
  List.fold_left ( + ) 0 a.sizes = a.n
  && a.gcd = Classes.gcd_all a.sizes
  && a.elects = (a.gcd = 1)
  &&
  match a.prediction with
  | Oracle.Solvable -> a.gcd = 1
  | Oracle.Frontier -> a.gcd > 1
  | Oracle.Unsolvable -> true

type renumbered = {
  same_fingerprint : bool;
  sizes' : int list;
  prediction' : Oracle.prediction;
}

(* A renumbered copy is the same instance up to isomorphism. *)
let renumbering_agrees a r =
  r.same_fingerprint
  && List.sort compare a.sizes = List.sort compare r.sizes'
  && a.prediction = r.prediction'

let check_renumbered i a =
  Cache.clear ();
  let b = bicolored i and b' = renumber i in
  renumbering_agrees a
    {
      same_fingerprint = Cache.fingerprint b = Cache.fingerprint b';
      sizes' = Classes.sizes (Classes.compute b');
      prediction' = Oracle.predict b';
    }

let op tr ~op b =
  Cache.clear ();
  Spans.span tr ~op "op.census" (fun () ->
      let sp name f = Spans.span tr ~op name f in
      let g = Bicolored.graph b in
      let cls = sp "classes.compute" (fun () -> Classes.compute b) in
      let elects =
        sp "oracle.elect_prediction" (fun () -> Oracle.elect_prediction b)
        = `Elects
      in
      let prediction = sp "oracle.predict" (fun () -> Oracle.predict b) in
      if Graph.n g <= 24 then
        ignore
          (sp "cayley_detect.recognize" (fun () ->
               Qe_symmetry.Cayley_detect.recognize g));
      (cls, elects, prediction))

(* The set-up's warm-up: the analyze path on the catalogue graphs of at
   most 16 nodes, with 1 to 4 agents on the first nodes. *)
let warmup () =
  let quiet = Spans.create ~on:false in
  List.iter
    (fun (e : entry) ->
      if e.n <= 16 then
        List.iter
          (fun k ->
            let b = Bicolored.make (e.build 0) ~black:(List.init k Fun.id) in
            ignore (op quiet ~op:(-1) b))
          [ 1; 2; 3; 4 ])
    catalogue

type sample = {
  inst : instance;
  op_ns : int;
  repeat_ns : int;
  fast : bool;
  answer : answer;
}

let run cfg =
  let (), setup =
    repeated_setup ~reps:5 (fun () ->
        ignore (instances ~seed:cfg.seed ~rounds:2);
        warmup ())
  in
  let tr = Spans.create ~on:cfg.trace in
  let kernel = ref [] in
  Cache.reset_stats ();
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let failed = ref 0 and attempted = ref 0 in
  let nrounds = rounds cfg ~round_s:6. in
  let rec loop r acc =
    if r > 0 && (r = nrounds || past_cap cfg ~since:t0) then (r, List.rev acc)
    else
      let acc =
        List.fold_left
          (fun acc inst ->
            let k = !attempted in
            incr attempted;
            match
              let b = bicolored inst in
              let (cls, elects, prediction), op_ns =
                timed (fun () -> with_counters tr kernel (fun () -> op tr ~op:k b))
              in
              let _, repeat_ns =
                timed (fun () ->
                    Spans.span tr ~op:k "oracle.predict.repeat" (fun () ->
                        Oracle.predict b))
              in
              let answer =
                {
                  n = Graph.n (Bicolored.graph b);
                  sizes = Classes.sizes cls;
                  gcd = Oracle.gcd_classes b;
                  elects;
                  prediction;
                }
              in
              { inst; op_ns; repeat_ns; fast = Classes.used_fast_path cls; answer }
            with
            | s ->
                if not (correct s.answer) then incr failed;
                s :: acc
            | exception e ->
                prerr_endline ("census " ^ describe inst ^ ": " ^ Printexc.to_string e);
                incr failed;
                acc)
          acc (round ~seed:cfg.seed r)
      in
      loop (r + 1) acc
  in
  let nrounds, samples = loop 0 [] in
  let gc1 = Gc.quick_stat () in
  let heap = peak_heap_mb () in
  let ops = List.length samples in
  let cache = cache_layers () in
  let classes_misses = misses_of "classes" in
  (* untimed pass: each instance of the first round, renumbered, must
     give the same answer *)
  let first_round = List.filteri (fun j _ -> j < 4 * List.length catalogue) samples in
  let renumber_failures =
    List.length
      (List.filter
         (fun s ->
           match check_renumbered s.inst s.answer with
           | ok -> not ok
           | exception e ->
               prerr_endline
                 ("census renumbered " ^ describe s.inst ^ ": " ^ Printexc.to_string e);
               true)
         first_round)
  in
  let failed = !failed + renumber_failures in
  let op_ms = List.map (fun s -> ms s.op_ns) samples in
  let e2e =
    [
      ("setup_s", setup);
      ( "ops_per_s",
        value ~samples:ops (float_of_int ops /. (Stats.sum op_ms /. 1e3)) );
      ("op_p50_ms", value ~samples:ops (Stats.median op_ms));
      ("op_p90_ms", value ~samples:ops (Stats.quantile 0.9 op_ms));
      ( "repeat_p50_ms",
        value ~samples:ops (Stats.median (List.map (fun s -> ms s.repeat_ns) samples)) );
      ("peak_heap_mb", value heap);
    ]
  in
  let slowest =
    List.map
      (fun (e : entry) ->
        let mine = List.filter (fun s -> s.inst.entry.label = e.label) samples in
        (e.label, Stats.median (List.map (fun s -> ms s.op_ns) mine)))
      catalogue
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < 5)
    |> List.map (fun (l, t) -> Printf.sprintf "%s %.1f ms" l t)
  in
  let notes =
    [
      Printf.sprintf "rounds=%d instances=%d renumbered=%d mismatches=%d" nrounds ops
        (List.length first_round) renumber_failures;
      "slowest op_p50 by graph: " ^ String.concat ", " slowest;
    ]
  in
  let layers, probe_failed =
    if not cfg.trace then ([], 0)
    else begin
      (* one instance per catalogue graph from the first round, with
         1, 2, 3, 4, 1, ... agents down the catalogue *)
      let ncat = List.length catalogue in
      let probed =
        List.filteri (fun j _ -> j / ncat = j mod ncat mod 4) first_round
      in
      let probes =
        List.mapi
          (fun i s ->
            probe tr ~op:(!attempted + i) ~search:true (fun () ->
                bicolored s.inst))
          probed
      in
      let unattributed = Spans.unattributed_frac tr in
      (* the engine and the pool, which analyze never reaches, measured on
         a one-seed zoo sweep *)
      let engine, sweep_failed = Campaign_wl.probe_sweep tr ~jobs:cfg.jobs in
      let replayed = Array.of_list (List.map (fun s -> bicolored s.inst) probed) in
      let overhead =
        overhead_layer ~n:(Array.length replayed) (fun tr i ->
            with_counters tr (ref []) (fun () -> ignore (op tr ~op:i replayed.(i))))
      in
      ( [
          ("classes.compute_ms", span_median tr "classes.compute");
          ( "classes.fast_path_frac",
            fraction (List.length (List.filter (fun s -> s.fast) samples)) ops );
          ( "classes.computes_per_op",
            value ~samples:ops
              (1. +. (float_of_int classes_misses /. float_of_int (max 1 ops))) );
          ("oracle.predict_ms", span_median tr "oracle.predict");
          overhead;
          ("trace.unattributed_frac", value unattributed);
        ]
        @ engine @ cache @ probe_layers tr probes
        @ kernel_layers !kernel ~ops
        @ gc_layers ~before:gc0 ~after:gc1 ~ops,
        sweep_failed )
    end
  in
  let failed = failed + probe_failed in
  { attempted = !attempted; failed; e2e; layers; notes; tracer = tr }
