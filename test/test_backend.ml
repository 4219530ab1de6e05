(* Differential tests of the two canonicalization kernels: the C stub
   (Canon.run_c, the production kernel behind Canon.run) and the
   pure-OCaml reference (Canon.run_ocaml) must agree bit-for-bit on every
   observable — certificates, labelings, orbits, generators, leaf counts,
   budget behavior and non-latency telemetry. The golden corpus pins the
   zoo fingerprints so a behavioral change in the kernel (or in the
   fingerprint construction) fails loudly. *)

module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module Cdigraph = Qe_symmetry.Cdigraph
module Canon = Qe_symmetry.Canon
module Brute = Qe_symmetry.Brute
module Cache = Qe_symmetry.Artifact_cache
module Campaign = Qe_elect.Campaign
module Metrics = Qe_obs.Metrics

let kernels =
  [
    ("ocaml", fun g -> Canon.run_ocaml g); ("c", fun g -> Canon.run_c g);
  ]

let random_permutation st n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let random_cdigraph ?(min_n = 2) ?(max_n = 12)
    ?(arc_color = fun st -> Random.State.int st 3) st =
  let n = min_n + Random.State.int st (max_n - min_n + 1) in
  let kc = 1 + Random.State.int st 3 in
  let colors = Array.init n (fun _ -> Random.State.int st kc) in
  let arcs = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float st 1.0 < 0.35 then
        arcs :=
          { Cdigraph.src = u; dst = v; color = arc_color st }
          :: !arcs
    done
  done;
  Cdigraph.make ~n ~node_color:(fun u -> colors.(u)) !arcs

(* A random strictly increasing map over 0..k-1 — relabels the color
   palette without changing the relative order either kernel keys on. *)
let monotone_map st k =
  let m = Array.make (max 1 k) 0 in
  let v = ref (Random.State.int st 3) in
  for c = 0 to k - 1 do
    m.(c) <- !v;
    v := !v + 1 + Random.State.int st 3
  done;
  fun c -> m.(c)

let recolor st g =
  let n = Cdigraph.n g in
  let max_nc =
    Array.fold_left max 0 (Array.init n (Cdigraph.node_color g))
  in
  let max_ac =
    List.fold_left (fun a (r : Cdigraph.arc) -> max a r.color) 0
      (Cdigraph.arcs g)
  in
  let fn = monotone_map st (max_nc + 1) in
  let fa = monotone_map st (max_ac + 1) in
  Cdigraph.make ~n
    ~node_color:(fun u -> fn (Cdigraph.node_color g u))
    (List.map
       (fun (r : Cdigraph.arc) -> { r with Cdigraph.color = fa r.color })
       (Cdigraph.arcs g))

(* --- properties, 1000 random digraphs per backend --- *)

let prop_renumber (kname, kernel) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: certificate invariant under renumbering" kname)
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca0; seed |] in
      let g = random_cdigraph st in
      let g' = Cdigraph.relabel g (random_permutation st (Cdigraph.n g)) in
      String.equal (kernel g).Canon.certificate (kernel g').Canon.certificate)

let prop_recolor (kname, kernel) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "%s: labeling/orbits invariant under monotone recoloring" kname)
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca1; seed |] in
      let g = random_cdigraph st in
      let g' = recolor st g in
      let a = kernel g and b = kernel g' in
      a.Canon.canonical_labeling = b.Canon.canonical_labeling
      && a.Canon.orbits = b.Canon.orbits
      && a.Canon.leaves_visited = b.Canon.leaves_visited)

let kernels_agree g =
  let a = Canon.run_ocaml g and b = Canon.run_c g in
  a.Canon.certificate = b.Canon.certificate
  && a.Canon.canonical_labeling = b.Canon.canonical_labeling
  && a.Canon.orbits = b.Canon.orbits
  && a.Canon.generators = b.Canon.generators
  && a.Canon.leaves_visited = b.Canon.leaves_visited

(* About half the arcs colored near 10^8 on 22..31 nodes, so both the
   refiner's packed key (color * n + node) and the leaf key
   (n^2 * kcol) exceed 2^31. *)
let large_arc_color st =
  if Random.State.bool st then 100_000_000 + Random.State.int st 3
  else Random.State.int st 3

let prop_cross_backend =
  QCheck.Test.make ~name:"ocaml and c kernels agree on everything"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca2; seed |] in
      kernels_agree (random_cdigraph st)
      && kernels_agree
           (random_cdigraph ~min_n:22 ~max_n:31 ~arc_color:large_arc_color st))

(* Colors the C kernel cannot hold in a C int are refused, not
   truncated; the reference kernel still handles them. *)
let test_c_range () =
  let too_big = 1 lsl 31 in
  let refused name g =
    match Canon.run_c g with
    | (_ : Canon.result) -> Alcotest.failf "%s: run_c accepted it" name
    | exception Invalid_argument _ ->
        ignore (Canon.run_ocaml g : Canon.result)
  in
  refused "arc color 2^31"
    (Cdigraph.make ~n:2 ~node_color:(fun _ -> 0)
       [ { Cdigraph.src = 0; dst = 1; color = too_big } ]);
  refused "node color 2^31"
    (Cdigraph.make ~n:2 ~node_color:(fun u -> u * too_big) []);
  Alcotest.(check bool) "largest C int is accepted" true
    (kernels_agree
       (Cdigraph.make ~n:2 ~node_color:(fun _ -> too_big - 1)
          [ { Cdigraph.src = 0; dst = 1; color = too_big - 1 } ]))

let prop_c_orbits_match_brute =
  QCheck.Test.make ~name:"c kernel orbits = brute orbits (n <= 8)"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca3; seed |] in
      let g = random_cdigraph ~max_n:8 st in
      Brute.orbits g = (Canon.run_c g).Canon.orbits)

let prop_budget_parity =
  QCheck.Test.make ~name:"Budget_exceeded fires at the same leaf count"
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca4; seed |] in
      let g = random_cdigraph st in
      let leaves = (Canon.run_ocaml g).Canon.leaves_visited in
      let raises (kernel : ?max_leaves:int -> Cdigraph.t -> Canon.result)
          budget =
        match kernel ~max_leaves:budget g with
        | (_ : Canon.result) -> false
        | exception Canon.Budget_exceeded -> true
      in
      QCheck.assume (leaves > 1);
      raises Canon.run_ocaml (leaves - 1)
      && raises Canon.run_c (leaves - 1)
      && (not (raises Canon.run_ocaml leaves))
      && not (raises Canon.run_c leaves))

let strip_latency snap =
  List.filter (fun (name, _) -> not (Metrics.is_latency name)) snap

let snapshot_of kernel g =
  let sink = Qe_obs.Sink.create () in
  let (_ : Canon.result) =
    Qe_obs.Sink.with_ambient sink (fun () -> kernel g)
  in
  strip_latency (Metrics.snapshot sink.Qe_obs.Sink.metrics)

let prop_metric_parity =
  QCheck.Test.make
    ~name:"non-latency canon/refine telemetry is backend-independent"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca5; seed |] in
      let g = random_cdigraph st in
      snapshot_of Canon.run_ocaml g = snapshot_of Canon.run_c g)

(* --- the production kernel --- *)

let test_run_is_c_kernel () =
  let st = Random.State.make [| 77 |] in
  List.iter
    (fun (name, g) ->
      let a = Canon.run g and b = Canon.run_c g in
      Alcotest.(check string) (name ^ ": certificate") b.Canon.certificate
        a.Canon.certificate;
      Alcotest.(check (array int)) (name ^ ": labeling")
        b.Canon.canonical_labeling a.Canon.canonical_labeling;
      Alcotest.(check (array int)) (name ^ ": orbits") b.Canon.orbits
        a.Canon.orbits;
      Alcotest.(check int) (name ^ ": leaves") b.Canon.leaves_visited
        a.Canon.leaves_visited)
    [
      ("petersen", Cdigraph.of_graph (Qe_graph.Families.petersen ()));
      ("random", random_cdigraph st);
    ]

(* --- golden corpus: zoo fingerprints are pinned --- *)

let golden_path = "data/canon_golden.txt"

let read_golden () =
  let ic = open_in golden_path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> (
            match String.index_opt line ' ' with
            | Some i ->
                go
                  ((String.sub line 0 i,
                    String.sub line (i + 1) (String.length line - i - 1))
                  :: acc)
            | None -> go acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_golden_corpus () =
  let golden = read_golden () in
  Alcotest.(check bool) "corpus is non-empty" true (List.length golden > 50);
  let zoo = Campaign.zoo () @ Campaign.cayley_zoo () in
  List.iter
    (fun (i : Campaign.instance) ->
      let name = i.Campaign.name in
      let b = Campaign.bicolored i in
      (match List.assoc_opt name golden with
      | None ->
          Alcotest.failf
            "%s missing from %s (regenerate with `qelect selftest \
             --write-golden`)"
            name golden_path
      | Some fp ->
          Alcotest.(check string) (name ^ " fingerprint") fp
            (Cache.fingerprint_uncached b));
      let d = Cdigraph.of_bicolored b in
      let a = Canon.run_ocaml d and c = Canon.run_c d in
      Alcotest.(check string) (name ^ ": reference certificate")
        a.Canon.certificate c.Canon.certificate;
      Alcotest.(check (array int)) (name ^ ": reference orbits")
        a.Canon.orbits c.Canon.orbits)
    zoo;
  Alcotest.(check int) "corpus covers exactly the zoo" (List.length zoo)
    (List.length golden)

let () =
  Alcotest.run "backend"
    [
      ( "differential",
        QCheck_alcotest.to_alcotest prop_cross_backend
        :: QCheck_alcotest.to_alcotest prop_c_orbits_match_brute
        :: QCheck_alcotest.to_alcotest prop_budget_parity
        :: QCheck_alcotest.to_alcotest prop_metric_parity
        :: Alcotest.test_case "c kernel refuses unrepresentable colors"
             `Quick test_c_range
        :: List.concat_map
             (fun k ->
               [
                 QCheck_alcotest.to_alcotest (prop_renumber k);
                 QCheck_alcotest.to_alcotest (prop_recolor k);
               ])
             kernels );
      ( "dispatch",
        [
          Alcotest.test_case "run is the c kernel" `Quick
            test_run_is_c_kernel;
        ] );
      ( "golden",
        [ Alcotest.test_case "zoo fingerprints pinned" `Quick
            test_golden_corpus ] );
    ]
